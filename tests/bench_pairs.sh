#!/usr/bin/env bash
# Alternating same-seed benchmark pairs, a parent revision against HEAD:
# the way a speed claim is made on a noisy host (ROADMAP "How a gain is
# claimed").
#
# Usage: tests/bench_pairs.sh <parent-rev> <workload> <pairs> [--seed N]
#
# Both revisions are exported with `git archive` into scratch copies and
# their benchmark binaries built there, so HEAD must hold the change
# (the working tree is not seen). Pair k runs the parent first when k is
# odd and the change first when k is even, each as
# `--workload <workload> --seed N --seconds 12 --trace 0`.
#
# One line per run: the five end-to-end metrics, sim_digest and
# ops_failed. Then, per metric: each side's median, Q1 and Q3, whether
# the medians differ by more than the parent's Q3-Q1, the median, Q1
# and Q3 of the per-pair ratio change / parent, the change's win count
# over the pairs, and FENCE where the change's median is worse than the
# parent's by more than that metric's BENCHMARK.json bound. Exits
# non-zero on a sim_digest that differs from the first run's, on a
# failed op, or on a run that does not finish.
#
# A gain is RESOLVED when the change wins at least 9 pairs in 10, and
# either the per-pair ratio's Q3 is below 1 (Q1 above 1 for a metric
# where higher is better) or the medians differ by more than the
# parent's Q3-Q1. The ratio is what survives a host that changes speed
# part way through: each pair runs back to back, so both sides of a
# pair share the phase, while the parent's own quartiles span both.
#
# Scratch space is $BENCH_PAIRS_DIR, or a fresh temporary directory; a
# revision already built there is reused.
set -u

usage() {
    echo "usage: tests/bench_pairs.sh <parent-rev> <workload> <pairs> [--seed N]" >&2
    exit 2
}
[ $# -ge 3 ] || usage
parent_rev=$1 workload=$2 pairs=$3
shift 3
seed=42
while [ $# -gt 0 ]; do
    case $1 in
        --seed) [ $# -ge 2 ] || usage; seed=$2; shift 2 ;;
        *) usage ;;
    esac
done

root=$(git rev-parse --show-toplevel)
cd "$root" || exit 2
scratch=${BENCH_PAIRS_DIR:-$(mktemp -d)}
mkdir -p "$scratch"
metrics="setup_s wall_s cpu_s events_per_s peak_rss_bytes"

# Exports `rev` and builds its benchmark; prints the binary's path.
build() {
    local sha dir
    sha=$(git rev-parse --verify "$1^{commit}") || exit 2
    dir="$scratch/$sha"
    if [ ! -x "$dir/repo-benchmark" ]; then
        rm -rf "$dir/src"
        mkdir -p "$dir/src"
        git archive "$sha" | tar -x -C "$dir/src" || exit 2
        CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
            --manifest-path "$dir/src/benchmark/Cargo.toml" >&2 || exit 2
        cp "$dir/target/release/repo-benchmark" "$dir/repo-benchmark" || exit 2
    fi
    echo "$dir/repo-benchmark"
}

parent_bin=$(build "$parent_rev") || exit 2
change_bin=$(build HEAD) || exit 2
results="$scratch/pairs-$workload-$seed.txt"
: >"$results"

status=0
first_digest=""
# Runs one side; appends "<side> <pair> <metrics...> <digest> <failed>".
run() {
    local side=$1 pair=$2 bin=$3 out line digest failed
    out=$("$bin" --workload "$workload" --seed "$seed" --seconds 12 --trace 0) || status=1
    line="$side $pair"
    for m in $metrics; do
        line="$line $(echo "$out" | awk -v m="$m" '$1 == "metric" && $2 == m { print $3 }')"
    done
    digest=$(echo "$out" | awk '$1 == "sim_digest" { print $2; exit }')
    failed=$(echo "$out" | awk '$1 == "ops_failed" { print $2 }')
    echo "$line ${digest:-none} ${failed:-none}" >>"$results"
    printf '%-6s pair %2d' "$side" "$pair"
    set -- $line
    shift 2
    for m in $metrics; do
        printf '  %s %s' "$m" "$1"
        shift
    done
    printf '  sim_digest %s  ops_failed %s\n' "${digest:-none}" "${failed:-none}"
    [ -n "$first_digest" ] || first_digest=$digest
    if [ "$digest" != "$first_digest" ] || [ "$failed" != 0 ]; then
        status=1
    fi
}

echo "workload $workload seed $seed: parent $(git rev-parse --short "$parent_rev") vs HEAD $(git rev-parse --short HEAD), $pairs pairs"
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$pair" "$parent_bin"
        run change "$pair" "$change_bin"
    else
        run change "$pair" "$change_bin"
        run parent "$pair" "$parent_bin"
    fi
done

# Summary: quartiles by linear interpolation over the sorted runs.
summary='
    function quart(v, n, q,   pos, lo) {
        pos = (n - 1) * q; lo = int(pos)
        return lo + 1 < n ? v[lo] + (pos - lo) * (v[lo + 1] - v[lo]) : v[lo]
    }
    function sort(v, n,   i, j, x) {
        for (i = 1; i < n; i++) {
            x = v[i]
            for (j = i - 1; j >= 0 && v[j] > x; j--) v[j + 1] = v[j]
            v[j + 1] = x
        }
    }
    $1 == "parent" { p[$2] = $col; ps[np++] = $col + 0 }
    $1 == "change" { c[$2] = $col; cs[nc++] = $col + 0 }
    END {
        wins = 0; nr = 0
        for (k in p) {
            if ((better == "lower" && c[k] + 0 < p[k] + 0) || (better == "higher" && c[k] + 0 > p[k] + 0)) wins++
            if (p[k] + 0 != 0) rs[nr++] = c[k] / p[k]
        }
        sort(ps, np); sort(cs, nc); sort(rs, nr)
        pm = quart(ps, np, 0.5); cm = quart(cs, nc, 0.5)
        delta = pm == 0 ? 0 : (cm - pm) / pm
        worse = better == "lower" ? delta : -delta
        fence = worse > bound ? sprintf("  FENCE (bound %d%%)", 100 * bound) : ""
        pq1 = quart(ps, np, 0.25); pq3 = quart(ps, np, 0.75)
        gap = cm > pm ? cm - pm : pm - cm
        spread = gap > pq3 - pq1 ? "beyond" : "within"
        rq1 = nr ? quart(rs, nr, 0.25) : 1; rq3 = nr ? quart(rs, nr, 0.75) : 1
        ratio_clear = better == "lower" ? rq3 < 1 : rq1 > 1
        resolved = 10 * wins >= 9 * np && (ratio_clear || spread == "beyond") ? "  RESOLVED" : ""
        printf "%-15s parent median %.6g (Q1 %.6g, Q3 %.6g)  change median %.6g (Q1 %.6g, Q3 %.6g)  %+.1f%%, %s the parent Q3-Q1  ratio median %.3f (Q1 %.3f, Q3 %.3f)  wins %d/%d%s%s\n", m, pm, pq1, pq3, cm, quart(cs, nc, 0.25), quart(cs, nc, 0.75), 100 * delta, spread, nr ? quart(rs, nr, 0.5) : 1, rq1, rq3, wins, np, resolved, fence
    }'
column=3
for m in $metrics; do
    bound=$(sed -n "s/.*\"name\": \"$m\".*\"better\": \"\([a-z]*\)\".*\"bound\": \([0-9.]*\).*/\1 \2/p" BENCHMARK.json)
    awk -v m="$m" -v col="$column" -v better="${bound% *}" -v bound="${bound#* }" "$summary" "$results"
    column=$((column + 1))
done
if [ "$status" -ne 0 ]; then
    echo "FAIL: a sim_digest differs, an op failed, or a run did not finish ($results)"
fi
exit $status
