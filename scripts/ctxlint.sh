#!/bin/sh
# ctxlint: the context-first API gate.
#
# Two rules, enforced over every non-test .go file:
#
#   1. An exported function whose name ends in "Ctx" must take
#      "ctx context.Context" as its FIRST parameter.
#   2. An exported solve entry point (Solve*/Place*/Publish*/Select* and
#      the five algorithm names) that does NOT take a context must be
#      on the allowlist below. The allowlist freezes the pre-context
#      API; new entry points must be context-first, so any unlisted
#      match fails the build, and so does an entry that no longer
#      matches a context-less entry point (stale entries would silently
#      exempt a future function of the same name).
#
# Run from the repository root: ./scripts/ctxlint.sh
set -u

fail=0

# ---- rule 1: *Ctx functions take ctx context.Context first -------------
bad_ctx=$(grep -rn --include='*.go' --exclude='*_test.go' \
    -E '^func (\([^)]+\) )?[A-Z][A-Za-z0-9]*Ctx\(' . |
    grep -v -E '\((ctx context\.Context|_ context\.Context)')
if [ -n "$bad_ctx" ]; then
    echo "ctxlint: *Ctx entry points must take 'ctx context.Context' as the first parameter:" >&2
    echo "$bad_ctx" >&2
    fail=1
fi

# ---- rule 2: non-context solve entry points are frozen ------------------
# Allowlist of offline reference solvers and sequential wrappers, one
# "file:Func" per line, matched as whole lines. Do NOT add new entries:
# write the context-first variant instead.
allowlist='./internal/baseline/baseline.go:SelectNodes
./internal/baseline/baseline.go:PlaceChunks
./internal/confl/confl.go:Solve
./internal/confl/greedy.go:SolveGreedy
./internal/core/core.go:Place
./internal/dist/dist.go:PlaceChunks
./internal/exact/exact.go:SolveChunk
./internal/exact/exact.go:PlaceChunks'

# Every context-less solve entry point, as "file:Func".
found=$(grep -rn --include='*.go' --exclude='*_test.go' \
    -E '^func (\([^)]+\) )?(Solve|Place|Publish|Select|Approximate|Distribute|Optimal|HopCountBaseline|ContentionBaseline)[A-Za-z0-9]*\(.*(\*?Options|\*?cache\.State|producer|chunks|Request)' . |
    grep -v 'context\.Context' |
    sed -E 's/^([^:]+):[0-9]+:func (\([^)]+\) )?([A-Za-z0-9]+)\(.*/\1:\3/' |
    sort -u)

nl='
'
# contains LIST ENTRY: whether ENTRY is one whole line of LIST.
contains() {
    case "$nl$1$nl" in
    *"$nl$2$nl"*) return 0 ;;
    esac
    return 1
}

IFS=$nl
for entry in $found; do
    if ! contains "$allowlist" "$entry"; then
        echo "ctxlint: new solve entry point without a context.Context first parameter: $entry" >&2
        echo "  (context-first is the API contract; see scripts/ctxlint.sh)" >&2
        fail=1
    fi
done
for entry in $allowlist; do
    if ! contains "$found" "$entry"; then
        echo "ctxlint: stale allowlist entry $entry: no context-less solve entry point of that name in that file" >&2
        fail=1
    fi
done
unset IFS

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "ctxlint: ok"
