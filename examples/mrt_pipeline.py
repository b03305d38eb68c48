#!/usr/bin/env python
"""The measurement pipeline end to end, through real MRT bytes.

This example demonstrates that the analysis layer consumes the same
artifact researchers download from RouteViews / RIPE RIS: an MRT
update archive.  It

1. simulates a day and dumps each collector's feed as RFC 6396 MRT —
   one archive at microsecond resolution, one at legacy whole-second
   resolution (some real collectors still record that way);
2. re-parses the archives with the MRT reader;
3. runs the paper's §4 cleaning pipeline (unallocated-resource
   filtering against the synthetic RIR registry, route-server AS-path
   repair, same-second timestamp disambiguation);
4. classifies announcement types on the cleaned feed.

If you have real ``updates.*`` MRT files, steps 2-4 run on them
unchanged: `MRTReader(open(path, 'rb'))`.

Unlike the other examples, this one builds its pipeline by hand
instead of running a scenario: it is the only demo of the §4
``CleaningPipeline``, which no ``run_scenario`` path applies yet.

Run:  python examples/mrt_pipeline.py
"""

import io

from repro.analysis import (
    CleaningPipeline,
    build_table2,
    observations_from_mrt,
)
from repro.mrt import MRTReader
from repro.reports import format_share, render_table
from repro.workloads import InternetConfig, InternetModel


def main() -> None:
    print("simulating one day ...")
    day = InternetModel(InternetConfig.small()).run()

    # --- dump and re-parse MRT archives -------------------------------
    observations = []
    for index, collector in enumerate(day.collectors()):
        legacy = index % 2 == 1  # every other collector: 1s resolution
        archive = collector.dump_mrt(extended_timestamps=not legacy)
        print(
            f"{collector.name}: {len(archive):,} bytes of MRT"
            f" ({'1s' if legacy else 'microsecond'} timestamps),"
            f" {collector.message_count()} records"
        )
        reader = MRTReader(io.BytesIO(archive), tolerant=True)
        observations.extend(
            observations_from_mrt(reader, collector.name)
        )
    observations.sort(key=lambda obs: obs.timestamp)
    print(f"re-parsed {len(observations)} per-prefix observations")

    # --- §4 cleaning ---------------------------------------------------
    pipeline = CleaningPipeline(oracle=day.registry)
    cleaned, report = pipeline.run(observations)
    print()
    print(report.summary())
    if report.route_server_peers:
        peers = ", ".join(
            f"AS{session.peer_asn}@{session.collector}"
            for session in sorted(
                report.route_server_peers,
                key=lambda s: (s.collector, s.peer_asn),
            )
        )
        print(f"transparent route-server peers repaired: {peers}")

    # --- classification -------------------------------------------------
    table = build_table2(cleaned, set(day.beacon_prefixes))
    rows = [
        (code, description, format_share(full), format_share(beacon))
        for code, description, full, beacon in table.as_rows()
    ]
    print()
    print(
        render_table(
            ("type", "observed changes", "full feed", "beacons"),
            rows,
            title="announcement types after cleaning",
        )
    )


if __name__ == "__main__":
    main()
