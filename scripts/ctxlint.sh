#!/bin/sh
# ctxlint: the context-first API gate.
#
# Two rules, enforced over every non-test .go file:
#
#   1. An exported function whose name ends in "Ctx" must take
#      "ctx context.Context" as its FIRST parameter.
#   2. An exported solve entry point (Solve*/Place*/Publish*/Select* and
#      the five algorithm names) must take a context: any context-less
#      one fails the build. Write the context-first variant instead.
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

# ---- rule 2: every solve entry point takes a context --------------------
bad_entry=$(grep -rn --include='*.go' --exclude='*_test.go' \
    -E '^func (\([^)]+\) )?(Solve|Place|Publish|Select|Approximate|Distribute|Optimal|HopCountBaseline|ContentionBaseline)[A-Za-z0-9]*\(.*(\*?Options|\*?cache\.State|producer|chunks|Request)' . |
    grep -v 'context\.Context')
if [ -n "$bad_entry" ]; then
    echo "ctxlint: solve entry points without a context.Context parameter:" >&2
    echo "$bad_entry" >&2
    echo "  (context-first is the API contract; see scripts/ctxlint.sh)" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "ctxlint: ok"
