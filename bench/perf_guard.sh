#!/bin/sh
# Perf-regression guard over the TPC-B bench JSON artifacts.
#
#   bench/perf_guard.sh BASELINE.json FRESH.json [TOLERANCE]
#
# For every system label present in both files, fail (exit 1) if the
# fresh run's ops_per_s drops more than TOLERANCE (default 0.15) below
# the baseline, or its store_writes_per_txn rises more than TOLERANCE
# above it. The baseline is typically the committed BENCH_TPCB.json
# (default scale); the fresh run may be quick scale — ops_per_s is
# dominated by the simulated disk model, so the two scales agree to
# within a few percent, well inside the tolerance. A baseline that
# predates the store_writes_per_txn field skips that check.
#
# Micro files ("bench": "micro", rows keyed by "name" with "ns_per_op")
# are guarded too: each ns_per_op may rise at most TOLERANCE (default
# 0.50 for micro — wall-clock micro numbers are noisy across hosts)
# above the baseline. The micro rows include the seal/unseal
# domain-count axis (…/d1 vs …/d4), so pool-overhead regressions on the
# batched commit and read paths trip the same guard.
#
# Label files that carry the domain sweep (tdbs/d1 … tdbs/d8) get one
# extra cross-width check: tdbs/d4 ops_per_s must stay within TOLERANCE
# of tdbs/d1 in the SAME fresh run, so widening the pool may never cost
# more than the tolerance even on a single-core host.
#
# Meter files ("bench": "meter", rows keyed by alpha) gate the cleaner's
# write amplification. Rows are compared against the baseline only when
# both files ran the SAME scale — quick-scale meter runs clean almost
# nothing, so cross-scale write-amp ratios are meaningless, unlike the
# disk-model-dominated TPC-B numbers.
#
# Shard-sweep files ("bench": "shards", labels tdbs / tdbs/s2 / tdbs/s4)
# gate only the shards=1 axis: the fresh "tdbs" row (shards = 1) is held
# within TOLERANCE of the baseline's "TDB-S" row, so the sharding layer
# may never tax the sequential path. The multi-shard rows are reported
# but NOT gated against shards=1 — cross-shard 2PC on one simulated disk
# pays for extra barriers and prepare records by design; the sweep exists
# to measure that tax, not to bound it.
set -eu

baseline=${1:?usage: perf_guard.sh BASELINE.json FRESH.json [TOLERANCE]}
fresh=${2:?usage: perf_guard.sh BASELINE.json FRESH.json [TOLERANCE]}

# Flatten a bench JSON so each system object is one line, then print the
# line for the given label (key is "label" or, for micro files, "name").
sys_line() {
    tr '\n' ' ' < "$1" | sed "s/{ *\"$3\"/\\
{ \"$3\"/g" | grep -F "\"$3\": \"$2\"" | head -n 1
}

# Extract a numeric field from a flattened system line (empty if absent).
field() {
    printf '%s\n' "$1" | sed -n "s/.*\"$2\": \([0-9][0-9.eE+-]*\).*/\1/p"
}

if grep -q '"bench": "micro"' "$fresh"; then
    tol=${3:-0.50}
    status=0
    names=$(tr '\n' ' ' < "$fresh" | sed 's/{ *"name"/\
{ "name"/g' | sed -n 's/.*"name": "\([^"]*\)".*/\1/p')
    for name in $names; do
        base_line=$(sys_line "$baseline" "$name" name) || true
        if [ -z "$base_line" ]; then
            echo "perf_guard: $name: not in baseline, skipping"
            continue
        fi
        fresh_line=$(sys_line "$fresh" "$name" name)
        b_ns=$(field "$base_line" ns_per_op)
        f_ns=$(field "$fresh_line" ns_per_op)
        [ -n "$b_ns" ] && [ -n "$f_ns" ] || continue
        if awk -v f="$f_ns" -v b="$b_ns" -v t="$tol" \
               'BEGIN { exit !(f > (1 + t) * b) }'; then
            echo "perf_guard: FAIL $name: ns_per_op $f_ns > $(awk -v b="$b_ns" -v t="$tol" 'BEGIN { printf "%.0f", (1+t)*b }') (baseline $b_ns, tolerance $tol)"
            status=1
        else
            echo "perf_guard: ok   $name: ns_per_op $f_ns (baseline $b_ns)"
        fi
    done
    exit $status
fi

if grep -q '"bench": "meter"' "$fresh"; then
    tol=${3:-0.15}
    status=0
    # One meter row per line, keyed by its "alpha": A prefix.
    meter_row() {
        tr '\n' ' ' < "$1" | sed 's/{ *"alpha"/\
{ "alpha"/g' | grep -F "\"alpha\": $2," | head -n 1
    }
    scale_of() {
        sed -n 's/.*"scale": { "name": "\([^"]*\)".*/\1/p' "$1" | head -n 1
    }
    alphas=$(tr '\n' ' ' < "$fresh" | sed 's/{ *"alpha"/\
{ "alpha"/g' | sed -n 's/.*"alpha": \([0-9.]*\),.*/\1/p')
    b_scale=$(scale_of "$baseline"); f_scale=$(scale_of "$fresh")
    if [ "$b_scale" != "$f_scale" ]; then
        echo "perf_guard: FAIL meter scales differ (baseline $b_scale, fresh $f_scale): rows are not comparable"
        exit 1
    fi
    for alpha in $alphas; do
        base_line=$(meter_row "$baseline" "$alpha") || true
        if [ -z "$base_line" ]; then
            echo "perf_guard: meter alpha=$alpha: not in baseline, skipping"
            continue
        fi
        fresh_line=$(meter_row "$fresh" "$alpha")
        b_wa=$(field "$base_line" write_amp)
        f_wa=$(field "$fresh_line" write_amp)
        [ -n "$b_wa" ] && [ -n "$f_wa" ] || continue
        # +0.02 absolute slack: rows that barely clean have write_amp
        # near 0, where a pure ratio gate would trip on noise
        if awk -v f="$f_wa" -v b="$b_wa" -v t="$tol" \
               'BEGIN { exit !(f > (1 + t) * b + 0.02) }'; then
            echo "perf_guard: FAIL meter alpha=$alpha: write_amp $f_wa > $(awk -v b="$b_wa" -v t="$tol" 'BEGIN { printf "%.4f", (1+t)*b+0.02 }') (baseline $b_wa, tolerance $tol)"
            status=1
        else
            echo "perf_guard: ok   meter alpha=$alpha: write_amp $f_wa (baseline $b_wa)"
        fi
    done
    exit $status
fi

tol=${3:-0.15}

labels=$(tr '\n' ' ' < "$fresh" | sed 's/{ *"label"/\
{ "label"/g' | sed -n 's/.*"label": "\([^"]*\)".*/\1/p')

status=0
for label in $labels; do
    base_line=$(sys_line "$baseline" "$label" label) || true
    if [ -z "$base_line" ]; then
        echo "perf_guard: $label: not in baseline, skipping"
        continue
    fi
    fresh_line=$(sys_line "$fresh" "$label" label)

    b_ops=$(field "$base_line" ops_per_s)
    f_ops=$(field "$fresh_line" ops_per_s)
    if [ -n "$b_ops" ] && [ -n "$f_ops" ]; then
        if awk -v f="$f_ops" -v b="$b_ops" -v t="$tol" \
               'BEGIN { exit !(f < (1 - t) * b) }'; then
            echo "perf_guard: FAIL $label: ops_per_s $f_ops < $(awk -v b="$b_ops" -v t="$tol" 'BEGIN { printf "%.1f", (1-t)*b }') (baseline $b_ops, tolerance $tol)"
            status=1
        else
            echo "perf_guard: ok   $label: ops_per_s $f_ops (baseline $b_ops)"
        fi
    fi

    b_w=$(field "$base_line" store_writes_per_txn)
    f_w=$(field "$fresh_line" store_writes_per_txn)
    if [ -z "$b_w" ]; then
        echo "perf_guard: $label: baseline has no store_writes_per_txn, skipping write check"
        continue
    fi
    if [ -n "$f_w" ]; then
        if awk -v f="$f_w" -v b="$b_w" -v t="$tol" \
               'BEGIN { exit !(f > (1 + t) * b) }'; then
            echo "perf_guard: FAIL $label: store_writes_per_txn $f_w > $(awk -v b="$b_w" -v t="$tol" 'BEGIN { printf "%.2f", (1+t)*b }') (baseline $b_w, tolerance $tol)"
            status=1
        else
            echo "perf_guard: ok   $label: store_writes_per_txn $f_w (baseline $b_w)"
        fi
    fi
done

# Domain-count axis: within the fresh run, widening the seal/unseal
# pipeline from 1 to 4 domains may not cost more than the tolerance.
d1_line=$(sys_line "$fresh" "tdbs/d1" label) || true
d4_line=$(sys_line "$fresh" "tdbs/d4" label) || true
if [ -n "$d1_line" ] && [ -n "$d4_line" ]; then
    d1_ops=$(field "$d1_line" ops_per_s)
    d4_ops=$(field "$d4_line" ops_per_s)
    if [ -n "$d1_ops" ] && [ -n "$d4_ops" ]; then
        if awk -v f="$d4_ops" -v b="$d1_ops" -v t="$tol" \
               'BEGIN { exit !(f < (1 - t) * b) }'; then
            echo "perf_guard: FAIL domains axis: tdbs/d4 ops_per_s $d4_ops < $(awk -v b="$d1_ops" -v t="$tol" 'BEGIN { printf "%.1f", (1-t)*b }') (tdbs/d1 $d1_ops, tolerance $tol)"
            status=1
        else
            echo "perf_guard: ok   domains axis: tdbs/d4 ops_per_s $d4_ops vs tdbs/d1 $d1_ops"
        fi
    fi
fi

# Shard axis: the shards=1 row of a shard sweep is the sequential path
# and must match the baseline's secure TPC-B row ("TDB-S"). Wider rows
# (tdbs/s2, tdbs/s4) are intentionally not gated — see header.
if grep -q '"bench": "shards"' "$fresh"; then
    s1_line=$(sys_line "$fresh" "tdbs" label) || true
    base_line=$(sys_line "$baseline" "TDB-S" label) || true
    if [ -n "$s1_line" ] && [ -n "$base_line" ]; then
        b_ops=$(field "$base_line" ops_per_s)
        f_ops=$(field "$s1_line" ops_per_s)
        if [ -n "$b_ops" ] && [ -n "$f_ops" ]; then
            if awk -v f="$f_ops" -v b="$b_ops" -v t="$tol" \
                   'BEGIN { exit !(f < (1 - t) * b) }'; then
                echo "perf_guard: FAIL shards axis: tdbs (shards=1) ops_per_s $f_ops < $(awk -v b="$b_ops" -v t="$tol" 'BEGIN { printf "%.1f", (1-t)*b }') (baseline TDB-S $b_ops, tolerance $tol)"
                status=1
            else
                echo "perf_guard: ok   shards axis: tdbs (shards=1) ops_per_s $f_ops vs baseline TDB-S $b_ops"
            fi
        fi
        b_w=$(field "$base_line" store_writes_per_txn)
        f_w=$(field "$s1_line" store_writes_per_txn)
        if [ -n "$b_w" ] && [ -n "$f_w" ]; then
            if awk -v f="$f_w" -v b="$b_w" -v t="$tol" \
                   'BEGIN { exit !(f > (1 + t) * b) }'; then
                echo "perf_guard: FAIL shards axis: tdbs (shards=1) store_writes_per_txn $f_w > $(awk -v b="$b_w" -v t="$tol" 'BEGIN { printf "%.2f", (1+t)*b }') (baseline TDB-S $b_w, tolerance $tol)"
                status=1
            else
                echo "perf_guard: ok   shards axis: tdbs (shards=1) store_writes_per_txn $f_w (baseline TDB-S $b_w)"
            fi
        fi
    fi
    echo "perf_guard: shards axis: multi-shard rows measured, not gated (2PC tax is by design)"
fi

exit $status
