package gen

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// regionsFullSweep is the reference for Regions: the same farthest-point
// sampling, but after every new seed it resets the distances and reruns a
// multi-source BFS from all seeds in index order, so a vertex equidistant
// from several seeds takes the lowest index. It costs r full sweeps of the
// graph; Regions must return the same labels.
func regionsFullSweep(g *graph.Graph, r int, seed uint64) []int32 {
	n := g.NumVertices()
	if r < 1 {
		panic("gen: Regions with r < 1")
	}
	if r > n {
		r = n
	}
	rand := rng.New(seed)

	dist := make([]int32, n)
	label := make([]int32, n)
	queue := make([]int32, 0, n)
	seeds := make([]int32, 0, r)
	seeds = append(seeds, int32(rand.Intn(n)))
	for {
		for i := range dist {
			dist[i] = -1
			label[i] = -1
		}
		queue = queue[:0]
		for i, s := range seeds {
			dist[s] = 0
			label[s] = int32(i)
			queue = append(queue, s)
		}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					label[u] = label[v]
					queue = append(queue, u)
				}
			}
		}
		if len(seeds) == r {
			break
		}
		far := int32(-1)
		farDist := int32(-1)
		for v := 0; v < n; v++ {
			if dist[v] < 0 { // disconnected vertex: always take it first
				far, farDist = int32(v), 1<<30
				break
			}
			if dist[v] > farDist {
				far, farDist = int32(v), dist[v]
			}
		}
		seeds = append(seeds, far)
	}

	next := int32(0)
	for v := 0; v < n; v++ {
		if label[v] < 0 {
			label[v] = next
			next = (next + 1) % int32(r)
		}
	}
	return label
}

// TestRegionsMatchesFullSweep pins Regions' labels to the full-sweep
// reference. The inputs cover meshes (many BFS ties), power-law graphs
// (isolated vertices, so unreached vertices become seeds first and the
// round-robin fallback runs), short paths, and region counts from 1 to
// past n. The region counts near n cost the reference n full sweeps, so
// only the graphs of at most a few hundred vertices take them.
func TestRegionsMatchesFullSweep(t *testing.T) {
	type input struct {
		name  string
		g     *graph.Graph
		fullR bool // also run r = n-1, n and n+3
	}
	// Smallest first: a sampler that relaxes on ties mislabels a tie on a
	// short path at once, but on a mesh it re-enqueues a vertex once per
	// shortest path and runs out of memory before it returns.
	var inputs []input
	for n := 1; n <= 12; n++ {
		inputs = append(inputs, input{fmt.Sprintf("path-%d", n), MRNGLike(1, 1, n, 3), true})
	}
	inputs = append(inputs,
		input{"grid2d-17x11", Grid2D(17, 11), true},
		input{"mesh-7x7x7", MRNGLike(7, 7, 7, 2), true},
		input{"plaw-600", PowerLaw(600, 3, 2.3, 5), true},
		input{"plaw-2000", PowerLaw(2000, 4, 2.5, 11), false},
	)
	for _, name := range []string{"mrng1t", "mrng2t", "mrng2s", "mrng3t"} {
		if testing.Short() && name != "mrng1t" {
			continue
		}
		s, _ := MeshByName(name)
		inputs = append(inputs, input{name, s.Build(7), false})
	}

	for _, in := range inputs {
		n := in.g.NumVertices()
		rs := []int{1, 2, 3, 16, 32, 200}
		if in.fullR {
			rs = append(rs, n-1, n, n+3)
		}
		for _, r := range rs {
			if r < 1 {
				continue
			}
			for seed := uint64(1); seed <= 5; seed++ {
				got := Regions(in.g, r, seed)
				want := regionsFullSweep(in.g, r, seed)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("%s (n=%d) r=%d seed=%d: vertex %d labelled %d, reference %d",
						in.name, n, r, seed, i, got[i], want[i])
				}
			}
		}
	}
}

func firstDiff(a, b []int32) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

var regionsSink []int32

// BenchmarkRegions times one Type 1 (r=16) and one Type 2 (r=32) region
// search on a tiny and a scaled mesh.
func BenchmarkRegions(b *testing.B) {
	for _, name := range []string{"mrng1t", "mrng2s"} {
		s, _ := MeshByName(name)
		g := s.Build(7)
		for _, r := range []int{16, 32} {
			b.Run(fmt.Sprintf("%s/r=%d", name, r), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					regionsSink = Regions(g, r, uint64(i))
				}
			})
		}
	}
}
