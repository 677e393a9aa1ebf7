#!/usr/bin/env bash
# pair.sh — paired A/B runs of the repository benchmark: a parent
# revision against the working tree, alternating, so host drift that
# outlasts a run hits both sides alike. This is how a speed claim is
# made (see README, "Benchmark workflow").
#
#   scripts/pair.sh <parent-rev> <workload>...
#   scripts/pair.sh HEAD~1 fig5-micro fig6-stash
#   PAIRS=5 TRACE=1 scripts/pair.sh main fig5-micro
#
# PAIRS  pairs per workload (default 10)
# TRACE  1 compares the traced run's per-layer metrics instead
#
# The parent is checked out with `git worktree` at .bench_build/pair/parent
# and removed again on exit. Both sides run `bash bench/run.sh` from their
# own root, so each builds from its own sources, for the benchmark's own
# run length. Pair i uses seed i on both sides. Odd pairs run the parent
# first, even pairs the change first.
# Every result line is kept in .bench_build/pair/<workload>.jsonl as
# {"pair", "seed", "side", "order", "exit", "result"}.
#
# For each workload and metric the report prints each side's median and
# quartiles, the ratio of medians (change / parent), the change's wins
# out of the pairs in the direction BENCHMARK.json's "better" gives, and
# the metric's bound. gain/IQR is the median's move in the better
# direction divided by the parent's interquartile range: a gain claim
# needs it above 1 and wins in at least nine pairs of ten.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
	sed -n '2,25p' "$0" | sed 's/^# \{0,1\}//' >&2
	exit 2
fi
rev=$1
shift
pairs=${PAIRS:-10}
trace=${TRACE:-0}

root=$PWD
out="$root/.bench_build/pair"
wt="$out/parent"
mkdir -p "$out"
parent_sha=$(git rev-parse --verify "$rev^{commit}")

cleanup() {
	git -C "$root" worktree remove --force "$wt" >/dev/null 2>&1 || true
	git -C "$root" worktree prune
}
trap cleanup EXIT

cleanup
git -C "$root" worktree add -q --detach "$wt" "$parent_sha"
echo "parent $rev = ${parent_sha:0:12}; change = working tree of $(git rev-parse --short HEAD)" >&2

# one SIDE DIR PAIR ORDER LOG runs the benchmark once with seed PAIR and
# appends its record to LOG.
one() {
	local side=$1 dir=$2 pair=$3 order=$4 log=$5 res code=0
	res=$(cd "$dir" && bash bench/run.sh --workload "$w" --seed "$pair" \
		--trace "$trace" 2>>"$out/$w.stderr" | tail -1) || code=$?
	case $res in
	'{'*) ;;
	*) res=null ;;
	esac
	printf '{"pair":%d,"seed":%d,"side":"%s","order":%d,"exit":%d,"result":%s}\n' \
		"$pair" "$pair" "$side" "$order" "$code" "$res" >>"$log"
	echo "  pair $pair $side: exit $code" >&2
}

for w in "$@"; do
	log="$out/$w.jsonl"
	: >"$log"
	: >"$out/$w.stderr"
	echo "== $w: $pairs pairs, trace=$trace" >&2
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2 == 1)); then
			one parent "$wt" "$i" 1 "$log"
			one change "$root" "$i" 2 "$log"
		else
			one change "$root" "$i" 1 "$log"
			one parent "$wt" "$i" 2 "$log"
		fi
	done
	python3 - "$log" "$root/BENCHMARK.json" "$trace" <<'EOF'
import json, statistics, sys

log, bench, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
defs = json.load(open(bench))
metrics = defs["per_layer"] if trace else defs["end_to_end"]
recs = [json.loads(l) for l in open(log)]
by = {}
for r in recs:
    by.setdefault(r["pair"], {})[r["side"]] = r

def quart(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1], q[2]

ok = {side: sum(1 for r in recs if r["side"] == side and r["exit"] == 0
                and r["result"] and r["result"]["correct"] and r["result"]["failed"] == 0)
      for side in ("parent", "change")}
n = len(by)
print(f"{log.rsplit('/', 1)[-1][:-6]}: {n} pairs; correct runs with 0 failed cells: "
      f"parent {ok['parent']}/{n}, change {ok['change']}/{n}")
print(f"{'metric':32} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'ratio':>7} {'wins':>6} {'gain/IQR':>8} {'bound':>6}")
for m in metrics:
    name, better = m["name"], m["better"]
    pv, cv, wins, paired = [], [], 0, 0
    for p in sorted(by):
        a, b = by[p].get("parent"), by[p].get("change")
        try:
            x = a["result"]["metrics"][name]["value"]
            y = b["result"]["metrics"][name]["value"]
        except (TypeError, KeyError):
            continue
        pv.append(x)
        cv.append(y)
        paired += 1
        if (y > x) if better == "higher" else (y < x):
            wins += 1
    if not paired:
        continue
    p1, pm, p3 = quart(pv)
    c1, cm, c3 = quart(cv)
    ratio = cm / pm if pm else float("nan")
    move = (cm - pm) if better == "higher" else (pm - cm)
    iqr = p3 - p1
    gain = move / iqr if iqr > 0 else float("inf") if move > 0 else float("nan")
    fmt = lambda a, b, c: f"{a:.4g}/{b:.4g}/{c:.4g}"
    bound = m.get("bound", "")
    print(f"{name:32} {fmt(p1, pm, p3):>30} {fmt(c1, cm, c3):>30} {ratio:7.3f} "
          f"{wins:>3}/{paired:<2} {gain:8.2f} {bound!s:>6}")
EOF
done
