#!/usr/bin/env bash
# Paired perf-ledger runs of two checkouts — the rule benchmarks/README.md
# asks of a change that claims a gain ("Comparing result sets").
#
#   scripts/bench-pair.sh <parent-checkout> <change-checkout> <workload> \
#       [pairs=10] [metric=ticks_per_s] [first-seed=101]
#
# Each pair runs `benchmarks/run.sh --workload W --seed S --seconds 20
# --trace 0` once in each checkout under one fresh seed, alternating which
# side goes first. Every checkout builds into its own ./target. Prints each
# pair — with `behaviour: identical` when `qos_satisfaction` and
# `batch_work` are equal to the last digit on both sides and `behaviour:
# moved` when not, so a change that claims bit-identity shows it beside its
# gain — then the win count (ties count for neither), each side's median
# and quartiles of the metric, and whether the gain rule holds: the change
# wins at least nine tenths of the pairs and the medians differ by more
# than the parent's inter-quartile range. When any pair moved, each side's
# median `qos_satisfaction` and `batch_work` over the pairs and their
# relative move follow, so a change that moves coordinates shows what its
# gain cost in behaviour in the same run. Runs that fail their own checks
# abort the script. Changes nothing in either checkout besides build output
# and benchmarks/results/.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,22p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
metric=${5:-ticks_per_s}
first_seed=${6:-101}

# "higher" or "lower", from the ledger's own declaration.
better=$(awk -v m="\"$metric\"" '
    $1 == "\"name\":" && index($2, m) == 1 { found = 1 }
    found && $1 == "\"better\":" { gsub(/[",]/, "", $2); print $2; exit }
' "$change/BENCHMARK.json")
if [ -z "$better" ]; then
    echo "bench-pair: BENCHMARK.json declares no metric '$metric'" >&2
    exit 2
fi

# One timed run in checkout $1 under seed $2; prints the values of the
# metric, `qos_satisfaction` and `batch_work` on one line.
run_one() {
    local line field
    line=$(CARGO_TARGET_DIR="$1/target" bash "$1/benchmarks/run.sh" \
        --workload "$workload" --seed "$2" --seconds 20 --trace 0 | tail -n 1)
    case $line in
    *'"correct":true'*) ;;
    *)
        echo "bench-pair: run failed its checks in $1 (seed $2): $line" >&2
        exit 1
        ;;
    esac
    for field in "$metric" qos_satisfaction batch_work; do
        printf '%s ' "$(printf '%s\n' "$line" |
            sed -n "s/.*\"$field\":{\"value\":\([-+0-9.eE]*\).*/\1/p")"
    done
    echo
}

# Build both sides before anything is timed.
for dir in "$parent" "$change"; do
    CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
        --manifest-path "$dir/benchmarks/Cargo.toml"
done

echo "workload=$workload metric=$metric better=$better pairs=$pairs"
parent_values=()
change_values=()
behaviours=() # "<P|C> <qos_satisfaction> <batch_work>", one entry per run
moved=0
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        first=parent
        p_out=$(run_one "$parent" "$seed")
        c_out=$(run_one "$change" "$seed")
    else
        first=change
        c_out=$(run_one "$change" "$seed")
        p_out=$(run_one "$parent" "$seed")
    fi
    read -r p p_behaviour <<<"$p_out"
    read -r c c_behaviour <<<"$c_out"
    parent_values+=("$p")
    change_values+=("$c")
    behaviours+=("P $p_behaviour" "C $c_behaviour")
    if [ "$p_behaviour" = "$c_behaviour" ]; then
        behaviour=identical
    else
        behaviour=moved
        moved=1
    fi
    echo "pair $((i + 1)) seed $seed first=$first parent=$p change=$c behaviour: $behaviour"
done

# Win count, quartiles (linear interpolation) and the gain rule; then, when
# any pair moved, what the two behaviour metrics did.
{
    printf '%s\n' "${parent_values[@]}" | sort -g | sed 's/^/P /'
    printf '%s\n' "${change_values[@]}" | sort -g | sed 's/^/C /'
    paste -d' ' <(printf '%s\n' "${parent_values[@]}") <(printf '%s\n' "${change_values[@]}") |
        sed 's/^/W /'
    # Tagged "<side><column> value", each side and column sorted on its own.
    for column in 2 3; do
        printf '%s\n' "${behaviours[@]}" | awk -v c=$column '{ print $1 c, $c }' | sort -k1,1 -k2,2g
    done
} | awk -v better="$better" -v moved="$moved" '
    function quantile(v, n, q,    h, lo) {
        h = (n - 1) * q + 1; lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    $1 == "P" { p[++np] = $2 }
    $1 == "C" { c[++nc] = $2 }
    $1 == "P2" { pq[++npq] = $2 } $1 == "C2" { cq[++ncq] = $2 }
    $1 == "P3" { pb[++npb] = $2 } $1 == "C3" { cb[++ncb] = $2 }
    $1 == "W" {
        d = (better == "higher") ? $3 - $2 : $2 - $3
        if (d > 0) cw++; else if (d < 0) pw++; else ties++
    }
    END {
        pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
        iqr = quantile(p, np, 0.75) - quantile(p, np, 0.25)
        printf "wins: change %d, parent %d, ties %d of %d pairs\n", cw, pw, ties, np
        printf "parent: q1 %.6g median %.6g q3 %.6g\n", quantile(p, np, 0.25), pm, quantile(p, np, 0.75)
        printf "change: q1 %.6g median %.6g q3 %.6g\n", quantile(c, nc, 0.25), cm, quantile(c, nc, 0.75)
        printf "change median / parent median = %.3f (parent IQR %.6g)\n", cm / pm, iqr
        gain = (better == "higher") ? cm - pm : pm - cm
        met = (cw * 10 >= np * 9 && gain > iqr)
        printf "gain rule (>= 9/10 pairs won, medians apart by more than the parent IQR): %s\n", met ? "met" : "not met"
        if (moved) {
            pm = quantile(pq, npq, 0.5); cm = quantile(cq, ncq, 0.5)
            printf "behaviour: median qos_satisfaction parent %.8g change %.8g (%+.3f%%)\n", pm, cm, (cm / pm - 1) * 100
            pm = quantile(pb, npb, 0.5); cm = quantile(cb, ncb, 0.5)
            printf "behaviour: median batch_work parent %.8g change %.8g (%+.3f%%)\n", pm, cm, (cm / pm - 1) * 100
        }
    }'

