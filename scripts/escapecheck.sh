#!/usr/bin/env sh
# escapecheck.sh — escape-analysis spot-check of the solve hot path.
#
# Compiles the hot packages with -gcflags=-m=1 and counts the compiler's
# "escapes to heap" / "moved to heap" diagnostics inside a named set of
# hot-path functions. Each function carries an allowed count: 0 for the
# per-tick / per-scan kernels that must stay allocation-free, small
# non-zero budgets for functions whose only escapes are one-time scratch
# growth (`make` on first use, amortized to zero across a solve). The
# check fails when a function reports MORE escapes than its budget —
# i.e. when a change quietly pushes a new allocation onto the hot path.
#
# When an escape is legitimate (a new lazily-grown scratch buffer), raise
# that function's budget here in the same commit and say why in review.
set -eu

cd "$(dirname "$0")/.."

# file:function:allowed — keep this list small and genuinely hot: the
# dual-growth tick phases, the one Dijkstra loop, the Steiner Prim step,
# scan/compaction kernels and key-path exchange search, the cost-model
# row sweep, the per-chunk placement step, the demand engine's per-event
# and per-requester kernels (serving an event, the eviction score writer
# and the per-chunk victim scan, the retrieval table's nearest/second
# scan and its two holder-change updates, and the redundancy ball walk),
# the requests body parser with its per-token steps, and Algorithm 2's
# simulation (a device's bid tick, its k-hop path search and the
# simulator's round loop). Non-zero budgets cover lazy scratch-growth
# `make` sites, the returned ChunkResult, the per-chunk edge-cost
# closure, the parser's one events slice per batch, error-path fmt args
# — all per-chunk at worst, never per-tick — and OnTick's two protocol
# messages: the TIGHT and SPAN payloads are boxed into sim.Payload, TIGHT
# is zero-size (no allocation) and SPAN carries the bidder's surplus, at
# most one per candidate per chunk.
CHECKS="
internal/confl/confl.go:tick:0
internal/confl/confl.go:readColumn:0
internal/confl/confl.go:raiseRelays:0
internal/confl/confl.go:freeze:0
internal/confl/confl.go:paid:0
internal/confl/confl.go:openAdmin:0
internal/steiner/steiner.go:join:0
internal/steiner/steiner.go:subgraphMST:1
internal/steiner/steiner.go:pruneLeaves:2
internal/graph/paths.go:ShortestPaths:0
internal/graph/pathcache.go:NodeCostsInto:0
internal/core/core.go:placeChunk:4
internal/steiner/improve.go:exchangeSearch:0
internal/demand/adapt.go:ballGains:0
internal/demand/adapt.go:lowestCopy:0
internal/demand/demand.go:CheckEvent:2
internal/demand/demand.go:Observe:0
internal/demand/demand.go:touch:0
internal/demand/demand.go:nearestTwo:0
internal/demand/demand.go:holdersAdd:0
internal/demand/demand.go:holdersRemove:0
internal/server/eventcodec.go:parseEvents:1
internal/server/eventcodec.go:tokens:0
internal/server/eventcodec.go:integer:0
internal/dist/node.go:OnTick:2
internal/dist/node.go:localPathCosts:0
internal/sim/sim.go:Run:0
"

fail=0
for spec in $CHECKS; do
  file="${spec%%:*}"
  rest="${spec#*:}"
  func="${rest%%:*}"
  allowed="${rest#*:}"
  pkg="./$(dirname "$file")"

  range="$(awk -v fn="$func" '
    $0 ~ ("^func (\\([^)]*\\) )?" fn "\\(") { start = NR }
    start && /^}/ { print start, NR; exit }
  ' "$file")"
  if [ -z "$range" ]; then
    echo "escapecheck: $file: function $func not found (stale check list?)" >&2
    fail=1
    continue
  fi
  start="${range%% *}"
  end="${range##* }"

  diags="$(go build -gcflags=-m=1 "$pkg" 2>&1 | awk -F: -v f="$file" -v s="$start" -v e="$end" '
    (index($0, "escapes to heap") || index($0, "moved to heap")) &&
    $1 == f && $2 + 0 >= s && $2 + 0 <= e
  ')"
  count=0
  if [ -n "$diags" ]; then
    count="$(printf '%s\n' "$diags" | wc -l | tr -d ' ')"
  fi

  if [ "$count" -gt "$allowed" ]; then
    echo "escapecheck: $file:$func reports $count heap escapes, budget is $allowed:" >&2
    printf '%s\n' "$diags" >&2
    fail=1
  else
    echo "escapecheck: $file:$func ok ($count/$allowed escapes)"
  fi
done

exit $fail
