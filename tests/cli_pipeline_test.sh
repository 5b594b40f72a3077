#!/bin/sh
# End-to-end smoke test of the minnoc CLI: generate a trace, analyze,
# design, round-trip the design file through show/simulate/dot, and
# run the phase-gain pipeline on a synthetic phase-shift workload.
# Invoked by CTest with $1 = path to the minnoc binary and
# $2 = path to the json_lint validator (optional; JSON checks are
# skipped when absent).
set -e

MINNOC="$1"
JSON_LINT="$2"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

lint_json() {
    if [ -n "$JSON_LINT" ]; then
        "$JSON_LINT" "$@"
    fi
}

"$MINNOC" gen --bench CG --ranks 8 --iterations 1 --out "$DIR/cg.trace"
test -s "$DIR/cg.trace"

"$MINNOC" analyze "$DIR/cg.trace" | grep -q "contention periods"

"$MINNOC" design "$DIR/cg.trace" --max-degree 5 --restarts 4 \
    --out "$DIR/cg.design" 2>/dev/null
test -s "$DIR/cg.design"
head -1 "$DIR/cg.design" | grep -q "minnoc-design 1"

"$MINNOC" show "$DIR/cg.design" | grep -q "FinalizedDesign"

"$MINNOC" simulate "$DIR/cg.trace" --network "$DIR/cg.design" \
    | grep -q "deadlocks=0"
"$MINNOC" simulate "$DIR/cg.trace" --network mesh | grep -q "exec="

"$MINNOC" dot "$DIR/cg.design" --out "$DIR/cg.dot"
grep -q "graph design" "$DIR/cg.dot"

# A semantically invalid trace (peer out of range, an unmatched send,
# a deadlock that only the phase replay meets) or an out-of-range
# fault flag is a user error: exit 1 with one "fatal:" line, never an
# abort.
expect_one_fatal() {
    rc=0
    "$MINNOC" "$@" 2>"$DIR/bad.err" >/dev/null || rc=$?
    test "$rc" -eq 1
    test "$(wc -l <"$DIR/bad.err")" -eq 1
    grep -q "^fatal: " "$DIR/bad.err"
}
printf 'trace x 2\n0 send 9 64 1\n' >"$DIR/bad.trace"
expect_one_fatal analyze "$DIR/bad.trace"
printf 'trace x 2\n0 send 1 64 1\n' >"$DIR/unmatched.trace"
expect_one_fatal analyze "$DIR/unmatched.trace"
printf 'trace x 2\n0 recv 1 64 1\n0 send 1 64 2\n1 recv 0 64 2\n1 send 0 64 1\n' \
    >"$DIR/deadlock.trace"
expect_one_fatal phases "$DIR/deadlock.trace"
expect_one_fatal simulate "$DIR/cg.trace" --network mesh \
    --flit-error-rate 2
expect_one_fatal simulate "$DIR/cg.trace" --network mesh \
    --fail-link-ids 99999
# Out-of-range generator and sweep parameters are refused up front,
# before any trace is built or any point is simulated.
expect_one_fatal gen --coherence 1 --ranks 4 --blocks 0
expect_one_fatal gen --coherence 1 --ranks 4 --sharers 0
expect_one_fatal explore "$DIR/cg.trace" --vcs 0 --degrees 4 --cache 0
expect_one_fatal explore "$DIR/cg.trace" --vc-depth 0 --degrees 4 \
    --cache 0

# Failing every eligible link disconnects every channel: the run still
# completes, every receive is lost and every channel is listed.
"$MINNOC" simulate "$DIR/cg.trace" --network mesh --fail-links 99999 \
    >"$DIR/allfail.out" 2>/dev/null
grep -q "dropped=24 recvs_lost=24 delivered_fraction=0.0000" \
    "$DIR/allfail.out"
test "$(grep -c "undeliverable channel:" "$DIR/allfail.out")" -eq 24

# Phase pipeline: a synthetic phase-shift workload must segment into
# at least two phases, verify contention-free per phase, and produce a
# byte-identical report at any thread count.
"$MINNOC" gen --patterns neighbor,transpose,hotspot --ranks 16 \
    --out "$DIR/shift.trace"
test -s "$DIR/shift.trace"

"$MINNOC" phases "$DIR/shift.trace" --restarts 4 --threads 1 \
    --out "$DIR/phases1.json" >"$DIR/phases.log" 2>/dev/null
grep -q "phase(s)" "$DIR/phases.log"
phases=$(sed -n 's/^\([0-9]*\) phase(s).*/\1/p' "$DIR/phases.log")
test "$phases" -ge 2

"$MINNOC" phases "$DIR/shift.trace" --restarts 4 --threads 4 \
    --out "$DIR/phases4.json" 2>/dev/null
cmp "$DIR/phases1.json" "$DIR/phases4.json"
lint_json "$DIR/phases1.json"
grep -q '"union_phase_violations": \[0\(, 0\)*\]' "$DIR/phases1.json"

# The explore sweep accepts the phase-window dimension and reports it.
"$MINNOC" explore "$DIR/shift.trace" --degrees 5 --vcs 3 \
    --unidirectional 0 --phase-windows 0,64 --cache 0 \
    --out "$DIR/explore.json" 2>/dev/null
lint_json "$DIR/explore.json"
grep -q '"phase_window": 64' "$DIR/explore.json"

echo "cli pipeline OK"
