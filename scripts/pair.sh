#!/usr/bin/env bash
# pair.sh — paired A/B runs of the repository benchmark: a parent
# revision against the working tree, alternating, so host drift that
# outlasts a run hits both sides alike. This is the repository's one
# benchmark harness: every speed claim is made with it, and it writes
# the committed trajectory that CI's gate (scripts/gate.sh) reads (see
# README, "Benchmark workflow").
#
#   scripts/pair.sh <parent-rev> <workload>...
#   scripts/pair.sh HEAD~1 fig5-micro fig6-stash
#   PAIRS=5 TRACE=1 scripts/pair.sh main fig5-micro
#
# PAIRS  pairs per workload (default 10)
# TRACE  1 compares the traced run's per-layer metrics instead
#
# The parent is unpacked with `git archive` into .bench_build/pair/parent
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
#
# After the reports, an untraced run writes the same numbers for every
# end-to-end metric, under BENCHMARK.json's names, to BENCH_<UTC date>.json
# at the root, with both revisions and each side's count of correct runs.
# A taken name gets a b, c, ... suffix, so a bytewise sort keeps the
# newest last. A TRACE=1 run writes no file.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
	sed -n '2,35p' "$0" | sed 's/^# \{0,1\}//' >&2
	exit 2
fi
rev=$1
shift
pairs=${PAIRS:-10}
trace=${TRACE:-0}

root=$PWD
out="$root/.bench_build/pair"
wt="$out/parent"
parent_sha=$(git rev-parse --verify "$rev^{commit}")
change_rev=$(git rev-parse HEAD)
git diff --quiet HEAD -- || change_rev+=-dirty

trap 'rm -rf "$wt"' EXIT
rm -rf "$wt"
mkdir -p "$wt"
git archive "$parent_sha" | tar -x -C "$wt"
echo "parent $rev = ${parent_sha:0:12}; change = working tree of ${change_rev:0:12}${change_rev:40}" >&2

# stats MODE ARG... does the report's arithmetic. "stats report LOG"
# prints one workload's table; "stats write FILE LOG..." writes the
# end-to-end numbers of every workload's log to FILE.
stats() {
	python3 - "$root/BENCHMARK.json" "$trace" "$parent_sha" "$change_rev" "$@" <<'EOF'
import datetime, json, statistics, sys

bench, trace, parent, change, mode = sys.argv[1:6]
defs = json.load(open(bench))
metrics = defs["per_layer"] if trace == "1" else defs["end_to_end"]

def quart(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1], q[2]

def summary(log):
    recs = [json.loads(l) for l in open(log)]
    by = {}
    for r in recs:
        by.setdefault(r["pair"], {})[r["side"]] = r
    ok = {side: sum(1 for r in recs if r["side"] == side and r["exit"] == 0
                    and r["result"] and r["result"]["correct"] and r["result"]["failed"] == 0)
          for side in ("parent", "change")}
    rows = {}
    for m in metrics:
        name, better = m["name"], m["better"]
        pv, cv, wins = [], [], 0
        for p in sorted(by):
            a, b = by[p].get("parent"), by[p].get("change")
            try:
                x = a["result"]["metrics"][name]["value"]
                y = b["result"]["metrics"][name]["value"]
            except (TypeError, KeyError):
                continue
            pv.append(x)
            cv.append(y)
            if (y > x) if better == "higher" else (y < x):
                wins += 1
        if pv:
            rows[name] = (m, quart(pv), quart(cv), wins, len(pv))
    return len(by), ok, rows

if mode == "report":
    log = sys.argv[6]
    n, ok, rows = summary(log)
    print(f"{log.rsplit('/', 1)[-1][:-6]}: {n} pairs; correct runs with 0 failed cells: "
          f"parent {ok['parent']}/{n}, change {ok['change']}/{n}")
    print(f"{'metric':32} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'ratio':>7} {'wins':>6} {'gain/IQR':>8} {'bound':>6}")
    for name, (m, (p1, pm, p3), (c1, cm, c3), wins, paired) in rows.items():
        ratio = cm / pm if pm else float("nan")
        move = (cm - pm) if m["better"] == "higher" else (pm - cm)
        iqr = p3 - p1
        gain = move / iqr if iqr > 0 else float("inf") if move > 0 else float("nan")
        fmt = lambda a, b, c: f"{a:.4g}/{b:.4g}/{c:.4g}"
        bound = m.get("bound", "")
        print(f"{name:32} {fmt(p1, pm, p3):>30} {fmt(c1, cm, c3):>30} {ratio:7.3f} "
              f"{wins:>3}/{paired:<2} {gain:8.2f} {bound!s:>6}")
else:
    path, logs = sys.argv[6], sys.argv[7:]
    side = lambda q: {"q1": q[0], "median": q[1], "q3": q[2]}
    doc = {
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "parent": parent,
        "change": change,
        "workloads": {},
    }
    for log in logs:
        n, ok, rows = summary(log)
        doc["workloads"][log.rsplit("/", 1)[-1][:-6]] = {
            "pairs": n,
            "correct": ok,
            "metrics": {
                name: {
                    "unit": m["unit"],
                    "better": m["better"],
                    "bound": m["bound"],
                    "parent": side(pq),
                    "change": side(cq),
                    "ratio": cq[1] / pq[1] if pq[1] else None,
                    "wins": wins,
                    "paired": paired,
                }
                for name, (m, pq, cq, wins, paired) in rows.items()
            },
        }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
EOF
}

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

logs=()
for w in "$@"; do
	log="$out/$w.jsonl"
	logs+=("$log")
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
	stats report "$log"
done

if [ "$trace" != 1 ]; then
	name=BENCH_$(date -u +%Y%m%d)
	file=$name.json
	for s in b c d e f g h i j k l m n o p q r s t u v w x y z; do
		[ -e "$file" ] || break
		file=$name$s.json
	done
	stats write "$root/$file" "${logs[@]}"
	echo "wrote $file" >&2
fi
