#!/usr/bin/env python
"""Community exploration around beacon withdrawals (paper §6).

Runs the ``internet-small`` scenario, a small internet day with
RIPE-style routing beacons (announce 00:00 + 4h, withdraw 02:00 + 4h
UTC), with two collectors:

1. ``beacon_phases`` picks the beacon stream with the strongest
   community exploration (the Figure 4 pattern: pc followed by runs
   of nc announcements inside withdrawal phases), counts its
   exploration bursts, and picks the Figure 5 stream of cleaned
   duplicates;
2. ``revealed`` counts how many unique community attributes only ever
   surface during withdrawal-driven path exploration (the paper:
   ≈62%).

Run:  python examples/beacon_community_exploration.py
"""

from dataclasses import replace

from repro.reports.paper import render_artifact
from repro.scenarios import get_scenario, run_scenario

COLLECTORS = ("beacon_phases", "revealed")


def main() -> None:
    print("simulating one day of a small internet with beacons ...")
    spec = replace(get_scenario("internet-small"), collectors=COLLECTORS)
    result = run_scenario(spec)
    for name in COLLECTORS:
        text = render_artifact(name, result.metrics.get(name))
        if text is None:
            raise SystemExit(f"{result.name}: no {name} artifact")
        print()
        print(text)


if __name__ == "__main__":
    main()
