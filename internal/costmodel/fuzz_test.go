package costmodel

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
)

// fuzzModel is one model of the fork chain FuzzModelMutations drives,
// with a shadow state that receives the same operations through
// cache.State directly, and — once the model has been forked — the matrix
// it held at fork time.
type fuzzModel struct {
	m      *Model
	shadow *cache.State
	frozen []float64
}

// FuzzModelMutations decodes its input as a topology and a sequence of
// three-byte operations: Commit, Evict, refresh, a refresh cancelled
// mid-sweep, and Fork, which continues the sequence on the child. It
// checks that every completed refresh matches contention.ComputeCosts bit
// for bit (Verify), that Commit returns the Store error of an identical
// state unchanged and Evict its answer, and that a fork's mutations never
// reach its parent's state or matrix.
func FuzzModelMutations(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps, maxForks, chunks = 64, 4, 6
		if len(data) < 2 {
			return
		}
		g := fuzzTopology(data[0])
		n := g.NumNodes()
		capacity := 1 + int(data[1])%3
		ctx := context.Background()
		st := cache.NewState(n, capacity)
		m, err := New(g, nil, st, Options{FairnessWeight: 1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		chain := []*fuzzModel{{m: m, shadow: st.Clone()}}
		ops := data[2:]
		if len(ops) > 3*maxOps {
			ops = ops[:3*maxOps]
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			cur := chain[len(chain)-1]
			node, chunk := int(ops[1])%(n+2)-1, int(ops[2])%chunks
			switch ops[0] % 4 {
			case 0:
				want := cur.shadow.Store(node, chunk)
				got := cur.m.Commit(node, chunk)
				if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
					t.Fatalf("Commit(%d, %d) = %v, Store on the same state = %v", node, chunk, got, want)
				}
				for _, sentinel := range []error{cache.ErrFull, cache.ErrDuplicate, cache.ErrNodeOutOfRange} {
					if errors.Is(got, sentinel) != errors.Is(want, sentinel) {
						t.Fatalf("Commit(%d, %d) = %v does not wrap %v like Store's %v", node, chunk, got, sentinel, want)
					}
				}
			case 1:
				want := node >= 0 && node < n && cur.shadow.Has(node, chunk)
				cur.shadow.Evict(node, chunk)
				if got := cur.m.Evict(node, chunk); got != want {
					t.Fatalf("Evict(%d, %d) = %v, want %v", node, chunk, got, want)
				}
			case 2:
				if ops[1]&1 == 1 {
					cc := &countingCtx{allow: int(ops[2]) % (n + 1)}
					if err := cur.m.RefreshCtx(cc, nil); err != nil && !errors.Is(err, context.Canceled) {
						t.Fatalf("cancelled refresh: %v", err)
					}
					continue
				}
				if err := cur.m.Verify(ctx, nil); err != nil {
					t.Fatalf("after refresh: %v", err)
				}
				sameState(t, cur)
			case 3:
				if len(chain) > maxForks {
					continue
				}
				fst := cache.NewState(n, capacity)
				if ops[1]&1 == 0 {
					fst = cur.shadow.Clone() // same weights: a warm fork
				}
				child, err := cur.m.ForkCtx(ctx, nil, fst, Options{FairnessWeight: float64(ops[2] % 3)})
				if err != nil {
					t.Fatalf("ForkCtx: %v", err)
				}
				costs, err := cur.m.CostsCtx(ctx, nil)
				if err != nil {
					t.Fatalf("parent CostsCtx: %v", err)
				}
				cur.frozen = append([]float64(nil), costs.C...)
				chain = append(chain, &fuzzModel{m: child, shadow: fst.Clone()})
			}
		}
		for i, fm := range chain {
			if err := fm.m.Verify(ctx, nil); err != nil {
				t.Fatalf("model %d of %d: %v", i, len(chain), err)
			}
			sameState(t, fm)
			if fm.frozen == nil {
				continue
			}
			costs, err := fm.m.CostsCtx(ctx, nil)
			if err != nil {
				t.Fatalf("model %d CostsCtx: %v", i, err)
			}
			for j, c := range costs.C {
				if math.Float64bits(c) != math.Float64bits(fm.frozen[j]) {
					t.Fatalf("model %d: cell %d moved from %v to %v after it was forked", i, j, fm.frozen[j], c)
				}
			}
		}
	})
}

// fuzzTopology decodes one byte into a 2..4 × 2..4 grid (low bit 0) or a
// 4..12-node random graph that may be disconnected (low bit 1), so
// unreachable cells and isolated nodes are part of the search space.
func fuzzTopology(b byte) *graph.Graph {
	if b&1 == 0 {
		return graph.NewGrid(2+int(b>>1)%3, 2+int(b>>3)%3)
	}
	rng := rand.New(rand.NewSource(int64(b)))
	g := graph.New(4 + int(b>>1)%9)
	for u := 0; u < g.NumNodes(); u++ {
		for v := u + 1; v < g.NumNodes(); v++ {
			if rng.Intn(10) < 3 {
				_ = g.AddEdge(u, v)
			}
		}
	}
	return g
}

// sameState fails unless the model's state holds exactly the shadow's
// chunks on every node.
func sameState(t *testing.T, fm *fuzzModel) {
	t.Helper()
	for i := 0; i < fm.shadow.NumNodes(); i++ {
		if got, want := fm.m.State().Chunks(i), fm.shadow.Chunks(i); !slices.Equal(got, want) {
			t.Fatalf("node %d holds %v, shadow state %v", i, got, want)
		}
	}
}
