#!/usr/bin/env bash
# gate.sh — the performance gate CI runs on every change. For each
# workload it runs the repository benchmark once, with seed 1, and
# fails when the run exits non-zero or reports correct: false, or when
# its sim_cycles_per_s_geomean falls below 0.7x the change median in
# the newest BENCH_2*.json at the root that holds the workload (the
# trajectory scripts/pair.sh writes; files without a "workloads" key
# are older history and hold none).
#
#   scripts/gate.sh fig5-micro fig6-stash
#
# The geomean over cells weighs every cell the same, so no single slow
# cell decides the verdict. The floor is loose on purpose: CI runners
# are not the host that wrote the trajectory, and one run is noisier
# than a median of ten, so only a real regression trips it.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
	sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//' >&2
	exit 2
fi

status=0
for w in "$@"; do
	code=0
	res=$(bash bench/run.sh --workload "$w" --seed 1 | tail -1) || code=$?
	python3 - "$w" "$code" "$res" <<'EOF' || status=1
import glob, json, sys

w, code, res = sys.argv[1], int(sys.argv[2]), sys.argv[3]
metric, floor = "sim_cycles_per_s_geomean", 0.7

def fail(msg):
    print(f"gate: {w}: FAIL: {msg}")
    sys.exit(1)

if code != 0:
    fail(f"bench/run.sh exited {code}")
try:
    got = json.loads(res)
except ValueError:
    fail("no JSON result line")
if not got["correct"]:
    fail("correct: false")
for path in sorted(glob.glob("BENCH_2*.json"), reverse=True):
    try:
        base = json.load(open(path))["workloads"][w]["metrics"][metric]["change"]["median"]
        break
    except KeyError:
        continue
else:
    fail("no BENCH_2*.json holds it")
v = got["metrics"][metric]["value"]
print(f"gate: {w}: {metric} {v:.4g} = {v / base:.3f}x the change median "
      f"{base:.4g} in {path} (floor {floor}x)")
if v < floor * base:
    fail(f"below {floor}x")
EOF
done
exit $status
