#!/bin/sh
# CI for the reproduction toolkit: tier-1 tests plus a scenario-engine
# smoke run.  Usage: scripts/ci.sh  (from the repository root)
set -eu

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== static analysis =="
# The contract linter gates the tree, one file at a time, before any
# test runs: determinism (DET001/DET002), hot-path instrumentation
# gating (OBS001), CLI stdout discipline (IO001), bounded memos
# (MEMO001), one cyclic-collector pause policy (GC001) and atomic
# durable writes (DUR001).  Two infrastructure codes report
# files that do not parse (SYN001) and malformed or unreasoned
# waivers (SUP001); neither can be waived.  There is no baseline
# file: exit 1 here means a contract violation — fix it or add a
# reasoned `# repro: allow(CODE) reason` waiver.  The cache schema
# guard (CACHE_SCHEMA_FINGERPRINT next to CACHE_VERSION) runs in tier 1
# from the running serializer: tests/test_scenarios_serialize.py.
python -m repro check src

echo
echo "== tier 1: test suite =="
# Besides the equivalence contracts, tier 1 holds the timing gates
# (tests/test_perf_gates.py): metrics overhead, the read-path floor
# and the mrt-spill throughput floor; and the paper's artifacts with
# their shape checks (tests/test_paper_artifacts.py).
python -m pytest -x -q

echo
echo "== smoke: scenario engine =="
python -m repro scenario list >/dev/null
python -m repro scenario run topology-tiny
# A heartbeat cadence with no journal and no progress lines to feed is
# a usage error: one "bad run arguments" line and exit 2.
STATUS=0
python -m repro scenario run topology-tiny --heartbeat-every 100 || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "lone --heartbeat-every exited $STATUS" >&2; exit 1; }
# A non-finite sweep timing is a usage error too, not a traceback.
STATUS=0
python -m repro scenario sweep topology-tiny --seeds 1 --cell-timeout inf || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "--cell-timeout inf exited $STATUS" >&2; exit 1; }

echo
echo "== examples: every script runs to a zero exit =="
for EXAMPLE in examples/*.py; do
    echo "$EXAMPLE"
    python "$EXAMPLE" > /dev/null
done

echo
echo "== smoke: parallel sweep + cache =="
CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR"' EXIT
python -m repro scenario sweep topology-tiny --seeds 1,2 --workers 2 \
    --cache-dir "$CACHE_DIR"
python -m repro scenario sweep topology-tiny --seeds 1,2 --workers 2 \
    --cache-dir "$CACHE_DIR"

echo
echo "== smoke: every execution backend =="
for BACKEND in serial processes queue; do
    python -m repro scenario sweep topology-tiny --seeds 1,2 --workers 2 \
        --backend "$BACKEND" --cache-dir "$CACHE_DIR/backend-$BACKEND"
done

echo
echo "== smoke: queue sweep, killed cell, resume round trip =="
# A first queue invocation computes seeds 1-2 of the 4-seed sweep.  A
# second one over all four seeds is killed on the first cell it
# claims (a count-1 kill rule: to its peers it looks like a machine
# that died mid-cell), leaving a dead claim and pending cells in the
# shared manifest.  Then simulate a cell lost to a mid-write kill by
# deleting one completed cache entry, and let --resume finish the
# whole sweep from the manifest alone; a short --stale-claim lets it
# requeue the dead invocation's claim.
QUEUE_KILL_CACHE="$CACHE_DIR/queue-killed"
python -m repro scenario sweep topology-tiny --seeds 1,2 \
    --backend queue --cache-dir "$QUEUE_KILL_CACHE"
cat > "$CACHE_DIR/queue-kill-plan.json" <<'EOF'
{"seed": 1,
 "rules": [{"site": "sweep.cell", "action": "kill", "count": 1}]}
EOF
if REPRO_FAULT_PLAN="$CACHE_DIR/queue-kill-plan.json" \
    python -m repro scenario sweep topology-tiny --seeds 1,2,3,4 \
    --backend queue --cache-dir "$QUEUE_KILL_CACHE"; then
    echo "the killed queue invocation exited cleanly" >&2
    exit 1
fi
FIRST_CELL="$(ls "$QUEUE_KILL_CACHE"/*.json | grep -v sweep.json | head -n 1)"
rm -f "$FIRST_CELL"
sleep 1
python -m repro scenario sweep --resume --cache-dir "$QUEUE_KILL_CACHE" \
    --backend queue --stale-claim 0.5
# A final serial pass must be served entirely from the shared cache —
# the cooperating invocations converged to the full sweep.
python -m repro scenario sweep topology-tiny --seeds 1,2,3,4 \
    --backend serial --cache-dir "$QUEUE_KILL_CACHE" \
    | tee "$CACHE_DIR/converged.txt"
grep -q "4 hit(s), 0 miss(es)" "$CACHE_DIR/converged.txt"

echo
echo "== smoke: sweep status view =="
# The human table goes to stderr; --json puts the machine payload on
# stdout, where it must parse and agree that every cell finished.
python -m repro scenario sweep --status --cache-dir "$QUEUE_KILL_CACHE"
python -m repro scenario sweep --status --cache-dir "$QUEUE_KILL_CACHE" \
    --json | python -c '
import json, sys
status = json.load(sys.stdin)
assert status["counts"]["done"] == status["counts"]["total"] == 4, status
'

echo
echo "== smoke: killed worker must not cascade =="
# A worker os._exits mid-cell (a kill rule in a REPRO_FAULT_PLAN; to
# the lane's parent it looks like a segfault or OOM kill).  The fix under
# test: the sweep completes every sibling and reports exactly the
# killed cell as failed (exit 1) — one dead worker used to fail the
# whole batch.  A fault-free --resume then finishes the matrix.
KILL_CACHE="$CACHE_DIR/killed"
cat > "$CACHE_DIR/kill-plan.json" <<'EOF'
{"seed": 1,
 "rules": [{"site": "sweep.cell", "match": "topology-tiny@seed2",
            "action": "kill"}]}
EOF
! REPRO_FAULT_PLAN="$CACHE_DIR/kill-plan.json" \
    python -m repro scenario sweep topology-tiny --seeds 1,2,3 \
    --workers 2 --backend processes --cache-dir "$KILL_CACHE"
python -m repro scenario sweep --status --cache-dir "$KILL_CACHE" \
    --json | python -c '
import json, sys
status = json.load(sys.stdin)
counts = status["counts"]
assert counts["done"] == 2 and counts["failed"] == 1, counts
failed = [c for c in status["cells"] if c["state"] == "failed"]
assert [c["name"] for c in failed] == ["topology-tiny@seed2"], failed
'
python -m repro scenario sweep --resume --cache-dir "$KILL_CACHE" \
    --workers 2
python -m repro scenario sweep --status --cache-dir "$KILL_CACHE" \
    --json | python -c '
import json, sys
counts = json.load(sys.stdin)["counts"]
assert counts["done"] == counts["total"] == 3, counts
'

echo
echo "== smoke: cooperating queue invocations =="
# Two concurrent invocations drain one shared work dir (claims by
# atomic rename); each cell is computed exactly once, and a final
# serial pass over the shared cache must be all hits.
QUEUE_CACHE="$CACHE_DIR/queued"
python -m repro scenario sweep topology-tiny --seeds 1,2,3,4 \
    --backend queue --cache-dir "$QUEUE_CACHE" &
QUEUE_PID_A=$!
python -m repro scenario sweep topology-tiny --seeds 1,2,3,4 \
    --backend queue --cache-dir "$QUEUE_CACHE" &
QUEUE_PID_B=$!
wait "$QUEUE_PID_A"
wait "$QUEUE_PID_B"
python -m repro scenario sweep topology-tiny --seeds 1,2,3,4 \
    --backend serial --cache-dir "$QUEUE_CACHE" \
    | tee "$CACHE_DIR/queue-converged.txt"
grep -q "4 hit(s), 0 miss(es)" "$CACHE_DIR/queue-converged.txt"

echo
echo "== smoke: seeded chaos (kills, stalls, torn writes) =="
# Three seeded rounds of scripts/chaos.sh: concurrent queue sweeps
# under an armed fault plan must converge — doctor-clean tree,
# byte-identical results, exactly one finish per cell journal.  The
# full 20-seed battery is the standalone `scripts/chaos.sh`.
scripts/chaos.sh 3

echo
echo "== cross-backend determinism suite =="
python -m pytest tests/test_backend_determinism.py -q

echo
echo "== end-to-end benchmark: pinned output digests =="
# One short run per workload: every op must reproduce the output
# digest pinned in benchmarks/e2e/workloads.json, or bench.py exits
# non-zero.  replay-mar20 first generates its input, the internet-mar20
# day's spilled archives (25-32 s on a 2-vCPU host, cached under
# benchmarks/e2e/.work until src/repro changes), so this step takes
# about a minute in all; it pins the MRT read path's output.
python3 benchmarks/e2e/bench.py --workload sim-medium,sweep-tiny,replay-mar20 \
    --seconds 1

echo
echo "== smoke: mrt-replay of a spilled archive =="
# Run the spilling scenario through the real CLI, pull the spill path
# out of the JSON result, and replay it through the same pipeline.  The
# replay must report exactly what the live run reported (live == spill)
# in every collector, except table2's beacon column: an MRT replay has
# no beacon schedule, so it leaves beacon_shares None by design.
python -m repro scenario run internet-small-spill --json \
    > "$CACHE_DIR/spill-result.json"
SPILL_PATH="$(python -c '
import json, sys
result = json.load(open(sys.argv[1]))
print(result["spill_paths"]["rrc00"])
' "$CACHE_DIR/spill-result.json")"
echo "spilled archive: $SPILL_PATH"
python -m repro scenario run mrt-replay --input "$SPILL_PATH" --json \
    > "$CACHE_DIR/replay-result.json"
# Keep a copy without its last 7 bytes for the damaged-input smoke.
TRUNCATED="$CACHE_DIR/truncated.mrt"
python -c '
import sys
with open(sys.argv[1], "rb") as source:
    data = source.read()
with open(sys.argv[2], "wb") as target:
    target.write(data[:-7])
' "$SPILL_PATH" "$TRUNCATED"
rm -f "$SPILL_PATH"
python -c '
import json, sys
live, replay = (json.load(open(path))["metrics"] for path in sys.argv[1:])
expected = {
    "community_prevalence", "duplicates", "table1", "table2", "update_counts"
}
if set(live) != expected or set(replay) != expected:
    sys.exit(f"collectors: live {sorted(live)}, replay {sorted(replay)}")
assert replay["table2"].pop("beacon_shares") is None, replay["table2"]
live["table2"].pop("beacon_shares")
for name in sorted(expected):
    print(f"{name}:", json.dumps(replay[name], sort_keys=True))
    if replay[name] != live[name]:
        print("live:", json.dumps(live[name], sort_keys=True))
        sys.exit(f"mrt-replay of the spilled archive disagrees on {name}")
' "$CACHE_DIR/spill-result.json" "$CACHE_DIR/replay-result.json"

echo
echo "== smoke: replay of a truncated archive =="
# Damaged input is either rejected or counted, never a crash: a strict
# replay exits 2 with one line naming the archive, a tolerant replay
# counts the cut record as damaged.
STRICT_STATUS=0
python -m repro scenario run mrt-replay-strict --input "$TRUNCATED" \
    > /dev/null 2> "$CACHE_DIR/strict.err" || STRICT_STATUS=$?
cat "$CACHE_DIR/strict.err"
if [ "$STRICT_STATUS" -ne 2 ] || grep -q Traceback "$CACHE_DIR/strict.err"
then
    echo "strict replay of a truncated archive exited $STRICT_STATUS" >&2
    exit 1
fi
python -m repro scenario run mrt-replay --input "$TRUNCATED" --json \
    | python -c '
import json, sys
stats = json.load(sys.stdin)["reader_stats"]
print("tolerant replay:", json.dumps(stats, sort_keys=True))
assert stats["error_records"] == 1, stats
'

echo
echo "CI OK"
