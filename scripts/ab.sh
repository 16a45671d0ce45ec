#!/usr/bin/env bash
# Paired A/B of the benchmark: the working tree against a parent commit.
#
#	scripts/ab.sh <parent-ref> [-pairs N] [-seed S] [-workload W]...
#
# Extracts <parent-ref> into a temporary directory (under $TMPDIR), then for
# every workload (default: all in BENCHMARK.json) runs N pairs (default 10) of
# `bench/run.sh --workload W --seed S --seconds 20 --trace 0`, alternating
# which side goes first, and prints one markdown row per workload and
# end-to-end metric: each side's median [q1–q3], the ratio of the medians, and
# the pairs the change won. Exits 1 if any run reports correct=false or a
# failed operation. Nothing under bench/ is edited; each tree builds its own
# bench binary into its own .bench_build/.
set -euo pipefail
usage() { echo "usage: scripts/ab.sh <parent-ref> [-pairs N] [-seed S] [-workload W]..." >&2; exit 2; }
[ $# -ge 1 ] || usage
ref=$1
shift
pairs=10 seed=31 workloads=()
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	-pairs) pairs=$2 ;;
	-seed) seed=$2 ;;
	-workload) workloads+=("$2") ;;
	*) usage ;;
	esac
	shift 2
done
root=$(git rev-parse --show-toplevel)
cd "$root"
if [ ${#workloads[@]} -eq 0 ]; then
	mapfile -t workloads < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$ref" | tar -x -C "$tmp/parent"

# run <side> <checkout> <workload> appends the run's result line to $tmp/<side>.<workload>.
run() {
	(cd "$2" && bash bench/run.sh --workload "$3" --seed "$seed" --seconds 20 --trace 0 2>"$tmp/stderr" | tail -n 1) >>"$tmp/$1.$3" ||
		{ tail -n 20 "$tmp/stderr" >&2; echo "ab: $1 run of $3 failed" >&2; exit 1; }
}
for w in "${workloads[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then
			run parent "$tmp/parent" "$w"
			run change "$root" "$w"
		else
			run change "$root" "$w"
			run parent "$tmp/parent" "$w"
		fi
		echo "ab: $w pair $i/$pairs" >&2
	done
done

python3 - "$tmp" "$ref" "${workloads[@]}" <<'EOF'
import json, statistics, sys
tmp, ref, *workloads = sys.argv[1:]
def cell(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return f"{statistics.median(xs):.4g} [{q[0]:.4g}–{q[2]:.4g}]"
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
bad = 0
print(f"| workload | metric | parent {ref} | change | ratio | wins |\n|---|---|---|---|---|---|")
for w in workloads:
    runs = {side: [json.loads(line) for line in open(f"{tmp}/{side}.{w}")] for side in ("parent", "change")}
    for side, results in runs.items():
        for r in results:
            if not r["correct"] or r["failed"] > 0:
                print(f"ab: {w} {side}: correct={r['correct']} failed={r['failed']}", file=sys.stderr)
                bad = 1
    for m in metrics:
        p, c = ([r["metrics"][m["name"]]["value"] for r in runs[side]] for side in ("parent", "change"))
        wins = sum(x < y if m["better"] == "lower" else x > y for x, y in zip(c, p))
        print(f"| {w} | {m['name']} | {cell(p)} | {cell(c)} | {statistics.median(c) / statistics.median(p):.3f} | {wins}/{len(p)} |")
sys.exit(bad)
EOF
