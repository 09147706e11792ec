#!/usr/bin/env bash
# Checks that the benchmark agrees with itself on this host, the way the
# driver checks it: ten runs a set, each run on another seed.
#
#   benchmark/selfcheck.sh            # 10 runs a set, seeds 1..10 (35 min)
#   RUNS=5 benchmark/selfcheck.sh     # the shortest check worth making
#   COUNTS=0 benchmark/selfcheck.sh   # skip the traced same-seed pair
#
# Two sets, A and B, of RUNS runs per workload of one build are run
# alternately (A1 B1 A2 B2 ...), run i of both sets on seed i. For every
# end-to-end metric it prints each set's median, its spread
# (Q3-Q1)/median by Python's statistics.quantiles(n=4), the gap between
# the two medians, and the median and widest of the same-seed ratios
# B_i/A_i, which hold the host's noise without the seeds' differences.
# It fails if
#   - a run exits non-zero or reports a failed operation, traced or not,
#   - a run prints other metric names than BENCHMARK.json lists,
#   - a gap between medians exceeds half the metric's bound,
#   - a spread exceeds the metric's bound (setup_s included), or
#   - two traced runs on one seed disagree on sim_digest, events or any
#     metric whose unit is `count` (alloc.count excepted).
# Workloads, run length and bounds are read from BENCHMARK.json.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=${RUNS:-10}
COUNTS=${COUNTS:-1}
OUT=benchmark/out/selfcheck
rm -rf "$OUT"
mkdir -p "$OUT"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
# The names BENCHMARK.json lists under $1 (workloads, per_layer, ...).
names() {
    python3 -c 'import json, sys; print(*(x["name"] for x in json.load(open("BENCHMARK.json"))[sys.argv[1]]), sep="\n")' "$1"
}
WORKLOADS=$(names workloads)
SECONDS_ARG=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

failed=0
# One run, logged to $1; a non-zero exit, a failed operation and a run
# that never printed its result all count as failure.
run_logged() {
    local log=$1
    shift
    if ! bench "$@" >"$log" || ! grep -q '^ops_failed 0$' "$log"; then
        echo "FAIL: $* exited non-zero or reported failed operations, see $log"
        failed=1
    fi
}

for ((i = 1; i <= RUNS; i++)); do
    for workload in $WORKLOADS; do
        for set in A B; do
            run_logged "$OUT/$set-$workload-$i.log" \
                --workload "$workload" --seed "$i" --seconds "$SECONDS_ARG" --trace 0
        done
    done
done

python3 - "$OUT" "$RUNS" <<'EOF' || failed=1
import json, statistics, sys

out, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
bad = False


def result(path):
    lines = open(path).read().splitlines()
    try:
        return json.loads(lines[-1])["metrics"]
    except (IndexError, ValueError, KeyError):
        return {}


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


print(f"{'workload':14} {'metric':15} {'median A':>13} {'median B':>13} "
      f"{'iqr A':>7} {'iqr B':>7} {'gap':>7} {'pair med':>8} {'pair max':>8} {'bound':>6}")
for w in (x["name"] for x in spec["workloads"]):
    sets = {s: [result(f"{out}/{s}-{w}-{i}.log") for i in range(1, runs + 1)] for s in "AB"}
    odd = [sorted(r) for r in sets["A"] + sets["B"] if set(r) != set(bounds)]
    if odd:
        print(f"FAIL: {w}: a run printed metrics {odd[0]}, BENCHMARK.json lists {sorted(bounds)}")
        bad = True
        continue
    for name, bound in bounds.items():
        a = [r[name]["value"] for r in sets["A"]]
        b = [r[name]["value"] for r in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        gap = abs(mb - ma) / ma
        pairs = [abs(y / x - 1) for x, y in zip(a, b)]
        note = ""
        if gap > bound / 2:
            note += " GAP"
        if max(spread(a), spread(b)) > bound:
            note += " SPREAD"
        bad = bad or bool(note)
        print(f"{w:14} {name:15} {ma:13.6g} {mb:13.6g} {spread(a):7.2%} {spread(b):7.2%} "
              f"{gap:7.2%} {statistics.median(pairs):8.2%} {max(pairs):8.2%} {bound:6.1%}{note}")
sys.exit(bad)
EOF

if [ "$COUNTS" = 1 ]; then
    for workload in $WORKLOADS; do
        for pass in 1 2; do
            log="$OUT/traced-$workload-$pass.log"
            run_logged "$log" --workload "$workload" --seed 1 --trace 1
            # alloc.count is left out: thread timing moves it (by 3 in
            # 17.8 M on service_evict).
            grep -E '^(sim_digest|events) |^metric [^ ]+ [^ ]+ count$' "$log" |
                grep -v '^metric alloc\.' >"$OUT/counts-$workload-$pass.txt" || true
        done
        if ! diff <(sed -n 's/^metric \([^ ]*\) .*/\1/p' "$OUT/traced-$workload-1.log" | LC_ALL=C sort) <(names per_layer | LC_ALL=C sort) >/dev/null; then
            echo "FAIL: $workload traced run prints other per-layer names than BENCHMARK.json lists"
            failed=1
        fi
        if [ -s "$OUT/counts-$workload-1.txt" ] &&
            cmp -s "$OUT/counts-$workload-1.txt" "$OUT/counts-$workload-2.txt"; then
            echo "counts repeat exactly: $workload ($(wc -l <"$OUT/counts-$workload-1.txt") values)"
        else
            echo "FAIL: $workload counts differ between two runs on one seed"
            diff "$OUT/counts-$workload-1.txt" "$OUT/counts-$workload-2.txt" || true
            failed=1
        fi
    done
fi

if [ "$failed" = 0 ]; then echo "selfcheck: PASS"; else echo "selfcheck: FAIL"; fi
exit "$failed"
