"""Fixture suite for the contract checkers.

Each checker gets at least one must-flag snippet reproducing its
historical bug pattern and at least one must-pass snippet showing the
fixed/approved idiom, run through the same pipeline CI uses
(:func:`repro.devtools.check_source`).
"""

import textwrap

from repro.devtools import check_source


def _codes(report):
    return [finding.code for finding in report.findings]


def _check(source, rel, select=None, extra=None):
    return check_source(
        textwrap.dedent(source), rel, select=select, extra_modules=extra
    )


# ----------------------------------------------------------------------
# DET001 — bare hash()/id()
# ----------------------------------------------------------------------
class TestDet001:
    def test_flags_salted_hash_in_deterministic_module(self):
        # The PR 1 bug: a decision tie breaker keyed on hash().
        report = _check(
            """
            def tie_break(route):
                return hash(route.prefix) % 7
            """,
            "rib/decision.py",
            select=["DET001"],
        )
        assert _codes(report) == ["DET001"]
        assert "hash()" in report.findings[0].message

    def test_flags_id_in_simulator(self):
        report = _check(
            """
            def key_for(node):
                return id(node)
            """,
            "simulator/session.py",
            select=["DET001"],
        )
        assert _codes(report) == ["DET001"]

    def test_passes_crc32_idiom(self):
        report = _check(
            """
            import zlib

            def tie_break(route):
                return zlib.crc32(repr(route.prefix).encode())
            """,
            "rib/decision.py",
            select=["DET001"],
        )
        assert report.clean

    def test_hash_inside_dunder_hash_is_exempt(self):
        report = _check(
            """
            class Route:
                def __hash__(self):
                    return hash((self.prefix, self.path))
            """,
            "rib/route.py",
            select=["DET001"],
        )
        assert report.clean

    def test_outside_deterministic_modules_not_flagged(self):
        report = _check(
            """
            def envelope_key(record):
                return hash(record)
            """,
            "obs/journal.py",
            select=["DET001"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# DET002 — ambient entropy
# ----------------------------------------------------------------------
class TestDet002:
    def test_flags_module_level_random(self):
        report = _check(
            """
            import random

            def jitter():
                return random.random()
            """,
            "simulator/events.py",
            select=["DET002"],
        )
        assert _codes(report) == ["DET002"]

    def test_flags_unseeded_random_instance(self):
        report = _check(
            """
            import random

            def make_rng():
                return random.Random()
            """,
            "scenarios/engine.py",
            select=["DET002"],
        )
        assert _codes(report) == ["DET002"]

    def test_passes_seeded_random_instance(self):
        report = _check(
            """
            import random

            def make_rng(seed):
                return random.Random(seed)
            """,
            "scenarios/engine.py",
            select=["DET002"],
        )
        assert report.clean

    def test_flags_wall_clock(self):
        report = _check(
            """
            import time

            def stamp():
                return time.time()
            """,
            "analysis/tables.py",
            select=["DET002"],
        )
        assert _codes(report) == ["DET002"]

    def test_passes_perf_counter_durations(self):
        report = _check(
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            "scenarios/runner.py",
            select=["DET002"],
        )
        assert report.clean

    def test_flags_urandom_and_uuid(self):
        report = _check(
            """
            import os
            import uuid

            def token():
                return os.urandom(8), uuid.uuid4()
            """,
            "scenarios/spec.py",
            select=["DET002"],
        )
        assert _codes(report) == ["DET002", "DET002"]

    def test_flags_set_iteration(self):
        report = _check(
            """
            def emit(peers):
                for peer in set(peers):
                    yield peer
            """,
            "analysis/observations.py",
            select=["DET002"],
        )
        assert _codes(report) == ["DET002"]
        assert "sorted" in report.findings[0].message

    def test_flags_set_comprehension_iteration(self):
        report = _check(
            """
            def emit(rows):
                return [row for row in {r.key for r in rows}]
            """,
            "analysis/observations.py",
            select=["DET002"],
        )
        assert _codes(report) == ["DET002"]

    def test_passes_sorted_set_iteration(self):
        report = _check(
            """
            def emit(peers):
                for peer in sorted(set(peers)):
                    yield peer
            """,
            "analysis/observations.py",
            select=["DET002"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# OBS001 — hot-path instrumentation gating
# ----------------------------------------------------------------------
class TestObs001:
    def test_flags_journal_import_on_hot_path(self):
        report = _check(
            """
            from repro.obs.journal import RunJournal

            def decode(buffer):
                RunJournal("x.jsonl").write("decode")
            """,
            "mrt/reader.py",
            select=["OBS001"],
        )
        assert _codes(report) == ["OBS001"]

    def test_flags_ungated_registry_call(self):
        # The overhead-budget near-miss: holding the registry in the
        # loop.
        report = _check(
            """
            from repro.obs import metrics as obs_metrics

            def decode(buffer):
                obs_metrics.registry().count("records")
            """,
            "bgp/wire.py",
            select=["OBS001"],
        )
        assert _codes(report) == ["OBS001"]
        assert "registry" in report.findings[0].message

    def test_flags_set_metrics_enabled_on_hot_path(self):
        report = _check(
            """
            from repro.obs import set_metrics_enabled
            """,
            "simulator/router.py",
            select=["OBS001"],
        )
        assert _codes(report) == ["OBS001"]

    def test_passes_gated_span_and_counter_pattern(self):
        report = _check(
            """
            from repro.obs import metrics as obs_metrics

            def decode(buffer):
                with obs_metrics.phase("mrt.decode"):
                    obs_metrics.count("mrt.records")
                if obs_metrics.metrics_enabled():
                    obs_metrics.gauge("mrt.bytes", len(buffer))
            """,
            "mrt/reader.py",
            select=["OBS001"],
        )
        assert report.clean

    def test_passes_direct_gated_helper_import(self):
        report = _check(
            """
            from repro.obs import count, phase

            def decode(buffer):
                with phase("mrt.decode"):
                    count("mrt.records")
            """,
            "mrt/reader.py",
            select=["OBS001"],
        )
        assert report.clean

    def test_engine_layer_not_restricted(self):
        report = _check(
            """
            from repro.obs.journal import RunJournal
            from repro.obs import metrics as obs_metrics

            def run():
                obs_metrics.reset_metrics()
            """,
            "scenarios/engine.py",
            select=["OBS001"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# IO001 — CLI stdout discipline
# ----------------------------------------------------------------------
class TestIo001:
    def test_flags_bare_print_in_cli(self):
        # The status-view bug shape: human chatter on stdout.
        report = _check(
            """
            def _run_status(arguments):
                print("3 cells done")
                return 0
            """,
            "cli.py",
            select=["IO001"],
        )
        assert _codes(report) == ["IO001"]

    def test_flags_direct_stdout_write(self):
        report = _check(
            """
            import sys

            def _run(arguments):
                sys.stdout.write("payload")
            """,
            "cli.py",
            select=["IO001"],
        )
        assert _codes(report) == ["IO001"]

    def test_passes_stderr_and_emitters(self):
        report = _check(
            """
            import sys

            def _emit(*values):
                print(*values)

            def _emit_json(document):
                print(document)

            def _run(arguments):
                print("progress", file=sys.stderr)
                _emit("table")
                _emit_json("{}")
            """,
            "cli.py",
            select=["IO001"],
        )
        assert report.clean

    def test_explicit_file_handle_passes(self):
        report = _check(
            """
            def _run(arguments, handle):
                print("row", file=handle)
            """,
            "cli.py",
            select=["IO001"],
        )
        assert report.clean

    def test_other_modules_unrestricted(self):
        report = _check(
            """
            def debug():
                print("not the cli")
            """,
            "devtools/cli.py",
            select=["IO001"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# CACHE001 — schema fingerprint vs CACHE_VERSION
# ----------------------------------------------------------------------
_SERIALIZE_V1 = """
def result_to_dict(result):
    payload = {
        "spec": {},
        "spec_hash": result.spec_hash,
        "metrics": result.metrics,
    }
    return payload


def failure_to_dict(failure):
    return {"name": failure.name, "error": failure.error}
"""

_ENGINE_FIXTURE = """
class ScenarioResult:
    spec: object
    spec_hash: str
    metrics: dict
"""


def _runner_fixture(fingerprint):
    return (
        "CACHE_VERSION = \"v2\"\n"
        f"CACHE_SCHEMA_FINGERPRINT = \"{fingerprint}\"\n\n\n"
        "class SweepReport:\n"
        "    results: list\n"
        "    workers: int\n"
    )


def _cache_report(serialize_source, runner_source):
    return check_source(
        textwrap.dedent(serialize_source),
        "scenarios/serialize.py",
        select=["CACHE001"],
        extra_modules=[
            ("scenarios/engine.py", textwrap.dedent(_ENGINE_FIXTURE)),
            ("scenarios/runner.py", runner_source),
        ],
    )


class TestCache001:
    def _current_fingerprint(self, serialize_source):
        """Fingerprint of the fixture trio via the public helper."""
        from repro.devtools import parse_module, schema_fingerprint
        from repro.devtools.project import Project

        project = Project(
            modules=[
                parse_module(
                    "scenarios/serialize.py",
                    textwrap.dedent(serialize_source),
                    rel="scenarios/serialize.py",
                ),
                parse_module(
                    "scenarios/engine.py",
                    textwrap.dedent(_ENGINE_FIXTURE),
                    rel="scenarios/engine.py",
                ),
                parse_module(
                    "scenarios/runner.py",
                    _runner_fixture("x"),
                    rel="scenarios/runner.py",
                ),
            ]
        )
        return schema_fingerprint(project)

    def test_matching_fingerprint_is_clean(self):
        fingerprint = self._current_fingerprint(_SERIALIZE_V1)
        report = _cache_report(
            _SERIALIZE_V1, _runner_fixture(fingerprint)
        )
        assert report.clean

    def test_schema_growth_without_bump_is_flagged(self):
        # The PR 5 bug: reader_stats appeared, CACHE_VERSION did not
        # move, and v1 entries replayed byte-different.
        fingerprint = self._current_fingerprint(_SERIALIZE_V1)
        grown = _SERIALIZE_V1.replace(
            '"metrics": result.metrics,',
            '"metrics": result.metrics,\n'
            '        "reader_stats": result.reader_stats,',
        )
        report = _cache_report(grown, _runner_fixture(fingerprint))
        assert _codes(report) == ["CACHE001"]
        assert "CACHE_VERSION" in report.findings[0].message

    def test_missing_fingerprint_constant_is_flagged(self):
        runner = "CACHE_VERSION = \"v2\"\n\n\nclass SweepReport:\n    results: list\n"
        report = _cache_report(_SERIALIZE_V1, runner)
        assert _codes(report) == ["CACHE001"]
        assert "CACHE_SCHEMA_FINGERPRINT" in report.findings[0].message

    def test_partial_scan_skips_quietly(self):
        report = _check(
            _SERIALIZE_V1, "scenarios/serialize.py", select=["CACHE001"]
        )
        assert report.clean


# ----------------------------------------------------------------------
# MEMO001 — bounded module-level caches
# ----------------------------------------------------------------------
class TestMemo001:
    def test_flags_unbounded_module_cache(self):
        # The pre-PR 5 shape: a hand-rolled memo with no bound.
        report = _check(
            """
            _DECODE_MEMO = {}

            def decode(key):
                if key not in _DECODE_MEMO:
                    _DECODE_MEMO[key] = key * 2
                return _DECODE_MEMO[key]
            """,
            "bgp/wire.py",
            select=["MEMO001"],
        )
        assert "MEMO001" in _codes(report)

    def test_passes_bounded_store_idiom(self):
        report = _check(
            """
            from repro.netbase.memo import bounded_store, memo_counters

            _DECODE_MEMO = {}
            _LIMIT = 4096
            _STATS = memo_counters("wire.decode")

            def decode(key):
                value = _DECODE_MEMO.get(key)
                if value is None:
                    value = bounded_store(
                        _DECODE_MEMO, key, key * 2, _LIMIT, _STATS
                    )
                return value
            """,
            "bgp/wire.py",
            select=["MEMO001"],
        )
        assert report.clean

    def test_flags_store_bypassing_the_bound(self):
        report = _check(
            """
            from repro.netbase.memo import bounded_store

            _DECODE_MEMO = {}

            def decode(key):
                return bounded_store(_DECODE_MEMO, key, key, 16)

            def warm(key, value):
                _DECODE_MEMO[key] = value
            """,
            "bgp/wire.py",
            select=["MEMO001"],
        )
        assert _codes(report) == ["MEMO001"]
        assert "bypasses" in report.findings[0].message

    def test_flags_setdefault_bypass(self):
        report = _check(
            """
            _PATH_CACHE = {}

            def lookup(key):
                return _PATH_CACHE.setdefault(key, compute(key))
            """,
            "analysis/cleaning.py",
            select=["MEMO001"],
        )
        codes = _codes(report)
        assert codes.count("MEMO001") == 2  # unbounded def + bypass

    def test_non_cache_names_ignored(self):
        report = _check(
            """
            _FACTORIES = {}

            def register(name, factory):
                _FACTORIES[name] = factory
            """,
            "scenarios/registry.py",
            select=["MEMO001"],
        )
        assert report.clean

    def test_memo_primitive_module_exempt(self):
        report = _check(
            """
            _STATS_CACHE = {}

            def memo_counters(name):
                _STATS_CACHE[name] = name
            """,
            "netbase/memo.py",
            select=["MEMO001"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# GC001 — one cyclic-collector policy
# ----------------------------------------------------------------------
class TestGc001:
    def test_flags_collector_calls_through_any_alias(self):
        report = _check(
            """
            import gc
            import gc as collector
            from gc import collect as full_collection

            def run_day(model):
                gc.disable()
                collector.set_threshold(10_000)
                model.run()
                full_collection()
                gc.freeze()
            """,
            "workloads/internet.py",
            select=["GC001"],
        )
        assert _codes(report) == ["GC001"] * 4
        assert "paused_gc" in report.findings[0].message

    def test_passes_waived_helper_and_read_only_probes(self):
        report = _check(
            """
            import gc

            def paused():
                enabled = gc.isenabled()
                gc.disable()  # repro: allow(GC001) the one pause helper
                counts = gc.get_count()
                return enabled, counts
            """,
            "scenarios/engine.py",
            select=["GC001"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# DUR001 — durable state must go through atomic_write
# ----------------------------------------------------------------------
class TestDur001:
    def test_flags_write_mode_open_in_durable_module(self):
        # The PR 10 bug: three unfsynced tmp-rename copies.
        report = _check(
            """
            def store(path, payload):
                with open(path + ".tmp", "w") as handle:
                    handle.write(payload)
            """,
            "scenarios/runner.py",
            select=["DUR001"],
        )
        assert _codes(report) == ["DUR001"]
        assert "atomic_write" in report.findings[0].message

    def test_flags_os_replace(self):
        report = _check(
            """
            import os

            def publish(temporary, path):
                os.replace(temporary, path)
            """,
            "scenarios/backends.py",
            select=["DUR001"],
        )
        assert _codes(report) == ["DUR001"]

    def test_flags_append_and_keyword_mode(self):
        report = _check(
            """
            def log(path):
                open(path, mode="a").write("x")
            """,
            "faults/doctor.py",
            select=["DUR001"],
        )
        assert _codes(report) == ["DUR001"]

    def test_passes_atomic_write_and_reads(self):
        report = _check(
            """
            import os

            from repro import durable

            def store(path, payload):
                durable.atomic_write(path, payload)

            def load(path):
                with open(path, "r", encoding="utf-8") as handle:
                    return handle.read()

            def claim(todo, claimed):
                os.rename(todo, claimed)
            """,
            "scenarios/backends.py",
            select=["DUR001"],
        )
        assert report.clean

    def test_outside_durable_modules_not_flagged(self):
        report = _check(
            """
            def scratch(path):
                open(path, "w").write("not durable state")
            """,
            "obs/journal.py",
            select=["DUR001"],
        )
        assert report.clean

    def test_waiver_suppresses_with_reason(self):
        report = _check(
            """
            def probe(path):
                open(path, "w").close()  # repro: allow(DUR001) liveness probe, not durable state
            """,
            "scenarios/backends.py",
            select=["DUR001"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# SYN001 — unparseable files are loud
# ----------------------------------------------------------------------
class TestSyn001:
    def test_syntax_error_is_a_finding(self):
        report = _check(
            """
            def broken(:
                pass
            """,
            "analysis/tables.py",
            select=["SYN001"],
        )
        assert _codes(report) == ["SYN001"]
        assert "syntax error" in report.findings[0].message

    def test_parseable_file_is_clean(self):
        report = _check(
            "x = 1\n", "analysis/tables.py", select=["SYN001"]
        )
        assert report.clean
