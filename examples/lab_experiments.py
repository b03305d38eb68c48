#!/usr/bin/env python
"""Reproduce the paper's §3 controlled lab experiments (Exp1-Exp4).

Runs the registered ``lab-baseline`` scenario through the scenario
engine: the Figure 1 topology (collector C1 — X1 — Y1 — {Y2,Y3} — Z1)
with real vendor behavior profiles, the Y1-Y2 link disabled, and the
fallout recorded for every experiment × every router implementation
the paper tested.  The whole matrix is one declarative spec — see
``repro scenario list`` for the catalog it lives in.

Run:  python examples/lab_experiments.py
"""

from repro.reports.paper import render_artifact
from repro.scenarios import get_scenario, run_scenario

DESCRIPTIONS = {
    "exp1": "no communities (internal next-hop change only)",
    "exp2": "Y2/Y3 geo-tag at ingress, nobody filters",
    "exp3": "exp2 + X1 strips communities on EGRESS",
    "exp4": "exp2 + X1 strips communities on INGRESS",
}


def main() -> None:
    result = run_scenario(get_scenario("lab-baseline"))
    matrix = result.metrics.get("lab_matrix")
    text = render_artifact("lab_matrix", matrix)
    if text is None:
        raise SystemExit(f"{result.name}: no lab_matrix artifact")
    print(text)
    print()
    for experiment, description in DESCRIPTIONS.items():
        print(f"{experiment}: {description}")
    print()
    print(f"scenario: {result.name}  spec hash: {result.spec_hash}")
    print(
        f"nn duplicates reaching the collector:"
        f" {matrix['duplicates_at_collector']} cell(s)"
    )
    print()
    print("Paper findings reproduced:")
    print(" * Exp1: all vendors except Junos emit an update with an")
    print("   unchanged AS path after an internal next-hop change;")
    print("   it is absorbed at X1 and never reaches the collector.")
    print(" * Exp2: a community change alone propagates all the way")
    print("   to the collector, on every implementation.")
    print(" * Exp3: egress cleaning still leaks an exact duplicate")
    print("   (nn) to the collector — unless the router is Junos,")
    print("   which compares against Adj-RIB-Out before sending.")
    print(" * Exp4: ingress cleaning keeps the RIB clean, so the")
    print("   spurious update is fully suppressed on all vendors.")


if __name__ == "__main__":
    main()
