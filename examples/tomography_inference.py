#!/usr/bin/env python
"""Per-AS community-behavior inference (the paper's §7 future work).

    "By characterizing the way individual ASes observe and process
     communities, our work provides a first step toward predicting
     anomalous communities."

This example runs the ``internet-small`` scenario with the
``tomography`` collector: it infers each AS's community practice from
the collector feeds alone and, because the synthetic internet knows
every AS's true practice, scores the inference the way a real study
never could.

Run:  python examples/tomography_inference.py
"""

from dataclasses import replace

from repro.reports.paper import render_artifact
from repro.scenarios import get_scenario, run_scenario


def main() -> None:
    print("simulating one day of a small internet ...")
    spec = replace(get_scenario("internet-small"), collectors=("tomography",))
    result = run_scenario(spec)
    text = render_artifact("tomography", result.metrics.get("tomography"))
    if text is None:
        raise SystemExit(f"{result.name}: no tomography artifact")
    print()
    print(text)
    print()
    print(
        "every row uses only collector-visible evidence; the 'truth'\n"
        "column is the simulation's ground truth — the validation the\n"
        "paper's future-work plan would need a testbed for."
    )


if __name__ == "__main__":
    main()
