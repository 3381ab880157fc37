package graph

import (
	"slices"
	"testing"
)

// FuzzBFS decodes its input as a node count, a hop bound, a source list
// and an edge list, and checks the traversal kernel against
// FloydWarshallHops, which shares no code with it. The graphs may be
// disconnected; sources may repeat or fall outside [0, N). Every distance
// must be the minimum over the valid sources, cut off at the bound; the
// visit order must list exactly the reached nodes, the sources first,
// nondecreasing in distance; and KHopNeighbors, Connected and Components
// must agree with the reference matrix.
func FuzzBFS(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%20
		maxHops := int(data[1])%8 - 2 // negative: no bound
		data = data[2:]
		ns := min(int(data[0])%6, len(data)-1)
		var srcs []int
		for _, b := range data[1 : 1+ns] {
			srcs = append(srcs, int(b)%(n+4)-2)
		}
		g := New(n)
		for e := data[1+ns:]; len(e) >= 2; e = e[2:] {
			if err := g.AddEdge(int(e[0])%n, int(e[1])%n); err != nil {
				t.Fatal(err)
			}
		}
		ref := g.FloydWarshallHops()

		want := make([]int, n)
		for v := range want {
			want[v] = Unreachable
			for _, s := range srcs {
				if s >= 0 && s < n && ref[s][v] != Unreachable && (want[v] == Unreachable || ref[s][v] < want[v]) {
					want[v] = ref[s][v]
				}
			}
			if maxHops >= 0 && want[v] > maxHops {
				want[v] = Unreachable
			}
		}
		var seeds []int
		for _, s := range srcs {
			if s >= 0 && s < n && !slices.Contains(seeds, s) {
				seeds = append(seeds, s)
			}
		}

		// Both instantiations, over rows and queues left dirty by a
		// previous traversal: the kernel must overwrite every cell.
		dist := make([]int, n)
		queue := BFS(g, []int{0}, -1, dist, nil)
		order := BFS(g, srcs, maxHops, dist, queue)
		dist32 := make([]int32, n)
		for i := range dist32 {
			dist32[i] = 7
		}
		order32 := BFS(g, srcs, maxHops, dist32, []int32{5, 5})
		for v := range want {
			if dist[v] != want[v] || int(dist32[v]) != want[v] {
				t.Fatalf("dist[%d] = %d (int32 %d), want %d (srcs %v, bound %d)", v, dist[v], dist32[v], want[v], srcs, maxHops)
			}
		}
		if len(order) != len(order32) {
			t.Fatalf("visit orders differ in length: %v vs %v", order, order32)
		}
		seen := make([]bool, n)
		for i, v := range order {
			if int(order32[i]) != v {
				t.Fatalf("visit orders differ: %v vs %v", order, order32)
			}
			if want[v] == Unreachable || seen[v] {
				t.Fatalf("visit order %v holds unreached or repeated node %d", order, v)
			}
			seen[v] = true
			if i > 0 && dist[v] < dist[order[i-1]] {
				t.Fatalf("visit order %v decreases in distance at %d", order, i)
			}
			if i < len(seeds) && v != seeds[i] {
				t.Fatalf("visit order %v does not start with the sources %v", order, seeds)
			}
		}
		for v := range want {
			if want[v] != Unreachable && !seen[v] {
				t.Fatalf("visit order %v misses reached node %d", order, v)
			}
		}

		connected := true
		for v := range ref {
			if ref[0][v] == Unreachable {
				connected = false
			}
			var near []int
			for u, d := range ref[v] {
				if u != v && d != Unreachable && d <= maxHops {
					near = append(near, u)
				}
			}
			if got := g.KHopNeighbors(v, maxHops); !slices.Equal(got, near) {
				t.Fatalf("KHopNeighbors(%d, %d) = %v, want %v", v, maxHops, got, near)
			}
		}
		if g.Connected() != connected {
			t.Fatalf("Connected() = %v, want %v", g.Connected(), connected)
		}
		var comps [][]int
		assigned := make([]bool, n)
		for v := range ref {
			if assigned[v] {
				continue
			}
			var comp []int
			for u, d := range ref[v] {
				if d != Unreachable {
					comp = append(comp, u)
					assigned[u] = true
				}
			}
			comps = append(comps, comp)
		}
		if got := g.Components(); !slices.EqualFunc(got, comps, slices.Equal[[]int]) {
			t.Fatalf("Components() = %v, want %v", got, comps)
		}
	})
}
