#!/usr/bin/env sh
# bench.sh — run the repo's benchmarks and record the results as
# BENCH_<short-sha>.json, so perf changes land in review diffs next to the
# code that caused them.
#
# Environment overrides:
#   BENCH_PKGS    packages to benchmark        (default: ./...)
#   BENCH_PATTERN -bench regexp                (default: .)
#   BENCH_TIME    -benchtime value             (default: go's default)
#   BENCH_OUT     output path                  (default: BENCH_<short-sha>.json)
#   BENCH_ASSERT  when 1, fail if any benchmark's allocs/op regressed
#                 beyond tolerance vs the committed baseline (see below)
#
# The JSON layout is one object per benchmark line:
#   {"name": ..., "iterations": ..., "nsPerOp": ..., "bytesPerOp": ..., "allocsPerOp": ...}
# wrapped with the commit, date and `go version` for provenance.
#
# After recording, the fresh run is diffed against the most recently
# committed BENCH_*.json (by commit time) and per-benchmark ns/op and
# allocs/op deltas are printed, so a perf regression is visible in the
# run log (and in CI) before the numbers land in review.
#
# With BENCH_ASSERT=1 the comparison becomes a gate on allocs/op only:
# a benchmark may not allocate more than 10% AND more than 2 allocs/op
# over its baseline. allocs/op is deterministic even at -benchtime=1x,
# so CI's smoke run can assert on it; ns/op stays advisory there (1x
# timings are noise). The tolerance absorbs size-class jitter while
# still catching a tracing hook or logging call leaking allocations
# onto a hot path.
set -eu

cd "$(dirname "$0")/.."

PKGS="${BENCH_PKGS:-./...}"
PATTERN="${BENCH_PATTERN:-.}"
SHA="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
OUT="${BENCH_OUT:-BENCH_${SHA}.json}"

TIME_FLAG=""
if [ -n "${BENCH_TIME:-}" ]; then
  TIME_FLAG="-benchtime=${BENCH_TIME}"
fi

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# shellcheck disable=SC2086 — TIME_FLAG is intentionally word-split.
go test -run '^$' -bench "$PATTERN" -benchmem -count=1 $TIME_FLAG $PKGS | tee "$RAW"

awk -v sha="$SHA" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go version)" -v btime="${BENCH_TIME:-default}" '
BEGIN {
  printf "{\n  \"commit\": \"%s\",\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [", sha, date, gover, btime
  n = 0
}
/^Benchmark/ {
  name = $1
  iters = $2
  ns = ""; bytes = ""; allocs = ""
  for (i = 3; i < NF; i++) {
    if ($(i+1) == "ns/op") ns = $i
    if ($(i+1) == "B/op") bytes = $i
    if ($(i+1) == "allocs/op") allocs = $i
  }
  if (ns == "") next
  if (n++) printf ","
  printf "\n    {\"name\": \"%s\", \"iterations\": %s, \"nsPerOp\": %s", name, iters, ns
  if (bytes != "") printf ", \"bytesPerOp\": %s", bytes
  if (allocs != "") printf ", \"allocsPerOp\": %s", allocs
  printf "}"
}
END { printf "\n  ]\n}\n" }
' "$RAW" > "$OUT"

echo "wrote $OUT"

# Baseline: the committed BENCH_*.json with the newest commit timestamp,
# excluding the file this run just wrote and any file recorded at a
# different -benchtime. A 1x smoke run amortizes cold setup over a single
# iteration while a default-time run spreads it over thousands, so
# allocs/op (and ns/op) are only comparable between runs of the same
# benchtime; files predating the benchtime field count as "default".
# Benchmark names are compared with their -GOMAXPROCS suffix stripped so
# runs from machines with different core counts still line up, but the
# pooled benchmarks allocate per worker: an allocs/op comparison holds
# only at the baseline's GOMAXPROCS (BENCH_smoke1x.json: 1, as CI runs it).
WANT_BTIME="${BENCH_TIME:-default}"
BASE=""
BASE_T=-1 # staged-but-uncommitted baselines have no commit time (0)
for f in $(git ls-files 'BENCH_*.json' 2>/dev/null); do
  [ "$f" = "${OUT#./}" ] && continue
  fbtime="$(sed -n 's/.*"benchtime": "\([^"]*\)".*/\1/p' "$f" | head -1)"
  [ -n "$fbtime" ] || fbtime="default"
  [ "$fbtime" = "$WANT_BTIME" ] || continue
  t="$(git log -1 --format=%ct -- "$f" 2>/dev/null)"
  [ -n "$t" ] || t=0
  if [ "$t" -gt "$BASE_T" ]; then
    BASE="$f"
    BASE_T="$t"
  fi
done

if [ -z "$BASE" ]; then
  echo "no committed BENCH_*.json baseline for benchtime=$WANT_BTIME; skipping comparison"
  exit 0
fi

echo ""
echo "delta vs $BASE ($(git log -1 --format=%h -- "$BASE")):"
awk -v assert="${BENCH_ASSERT:-0}" '
function bname(line,    n) {
  if (!match(line, /"name": "[^"]+"/)) return ""
  n = substr(line, RSTART + 9, RLENGTH - 10)
  sub(/-[0-9]+$/, "", n)  # strip the -GOMAXPROCS suffix
  return n
}
function num(line, key,    v) {
  if (!match(line, "\"" key "\": [0-9.e+]+")) return ""
  v = substr(line, RSTART, RLENGTH)
  sub(/.*: /, "", v)
  return v
}
function pct(old, new) {
  if (old + 0 == 0) return "n/a"
  return sprintf("%+.1f%%", 100 * (new - old) / old)
}
/\{"name":/ {
  n = bname($0)
  if (n == "") next
  if (FNR == NR) {
    base_ns[n] = num($0, "nsPerOp")
    base_al[n] = num($0, "allocsPerOp")
    next
  }
  ns = num($0, "nsPerOp")
  al = num($0, "allocsPerOp")
  if (!(n in base_ns)) {
    printf "  %-46s new benchmark: %s ns/op", n, ns
    if (al != "") printf ", %s allocs/op", al
    printf "\n"
    next
  }
  printf "  %-46s ns/op %s -> %s (%s)", n, base_ns[n], ns, pct(base_ns[n], ns)
  if (al != "" && base_al[n] != "")
    printf "  allocs/op %s -> %s (%s)", base_al[n], al, pct(base_al[n], al)
  printf "\n"
  # The assertion gate: allocs/op beyond 10% AND 2 absolute over baseline.
  if (assert == 1 && al != "" && base_al[n] != "") {
    if (al + 0 > base_al[n] * 1.10 && al + 0 > base_al[n] + 2) {
      bad[nbad++] = sprintf("%s: allocs/op %s -> %s", n, base_al[n], al)
    }
  }
}
END {
  if (nbad > 0) {
    printf "\nBENCH_ASSERT: %d benchmark(s) regressed allocs/op beyond tolerance (>10%% and >2):\n", nbad > "/dev/stderr"
    for (i = 0; i < nbad; i++) printf "  %s\n", bad[i] > "/dev/stderr"
    exit 1
  }
}
' "$BASE" "$OUT"
