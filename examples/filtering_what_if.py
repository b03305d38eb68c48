#!/usr/bin/env python
"""What-if: how much collector traffic would community hygiene save?

The paper's recommendation is that operators should filter BGP
communities more rigorously.  This example quantifies the claim on the
synthetic internet by sweeping three variants of the ``internet-small``
scenario, each with the ``update_counts`` and ``duplicates``
collectors:

* baseline          — the calibrated practice mix (most ASes propagate
                      blindly);
* everyone-cleans   — every AS strips foreign communities at ingress
                      (the paper's Exp4 hygiene, applied globally);
* nobody-tags       — geo-tagging disabled entirely (upper bound).

Run:  python examples/filtering_what_if.py
"""

from dataclasses import replace

from repro.reports import format_share, render_table
from repro.scenarios import get_scenario, run_sweep

#: (world, InternetSpec overrides); the topology and events are shared.
WORLDS = (
    ("baseline (calibrated mix)", {}),
    (
        "everyone cleans at ingress",
        {
            "tagger_fraction": 0.0,
            "cleaner_ingress_fraction": 1.0,
            "cleaner_egress_fraction": 0.0,
            "community_churn_events": 10,
        },
    ),
    ("nobody tags", {"tagger_fraction": 0.0}),
)


def main() -> None:
    print("simulating three policy worlds (same topology, same events) ...")
    base = get_scenario("internet-small")
    specs = [
        replace(
            base,
            name=f"{base.name}/{world}",
            internet=replace(base.internet, **overrides),
            collectors=("update_counts", "duplicates"),
        )
        for world, overrides in WORLDS
    ]
    report = run_sweep(specs, workers=2)
    report.raise_failures()
    rows = [
        (
            world,
            result.metrics["update_counts"]["observations"],
            format_share(result.metrics["duplicates"]["spurious_share"]),
        )
        for (world, _), result in zip(WORLDS, report.results)
    ]
    print()
    print(
        render_table(
            ("world", "collector obs", "nc+nn share"),
            rows,
            title="what community hygiene buys (small internet, 1 day)",
        )
    )
    saved = 1 - rows[1][1] / rows[0][1]
    print()
    print(
        f"global ingress cleaning removes {saved:.0%} of collector-"
        "visible observations on this workload — the operational payoff"
    )
    print("the paper argues for in §7.")


if __name__ == "__main__":
    main()
