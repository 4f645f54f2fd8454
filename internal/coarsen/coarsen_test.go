package coarsen

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
)

func randomMesh(t *testing.T, m int, seed uint64) *graph.Graph {
	t.Helper()
	base := gen.MRNGLike(10, 10, 10, seed)
	if m == 1 {
		return base
	}
	return gen.Type1(base, m, seed)
}

func TestMatchIsValidMatching(t *testing.T) {
	for _, m := range []int{1, 3} {
		g := randomMesh(t, m, 7)
		match := Match(g, rng.New(1), Options{BalancedEdge: m > 1})
		n := g.NumVertices()
		for v := int32(0); int(v) < n; v++ {
			u := match[v]
			if u < 0 || int(u) >= n {
				t.Fatalf("match[%d] = %d out of range", v, u)
			}
			if match[u] != v {
				t.Fatalf("matching not an involution: match[%d]=%d, match[%d]=%d", v, u, u, match[u])
			}
			if u != v && !areNeighbors(g, v, u) {
				t.Fatalf("matched pair (%d,%d) not adjacent", v, u)
			}
		}
	}
}

func TestMatchRespectsWeightCap(t *testing.T) {
	g := randomMesh(t, 2, 9)
	const cap = 15
	match := Match(g, rng.New(2), Options{MaxVertexWeight: cap})
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		u := match[v]
		if u == v {
			continue
		}
		vw, uw := g.VertexWeight(v), g.VertexWeight(u)
		for c := range vw {
			if int64(vw[c])+int64(uw[c]) > cap {
				t.Fatalf("pair (%d,%d) exceeds weight cap in constraint %d", v, u, c)
			}
		}
	}
}

func areNeighbors(g *graph.Graph, v, u int32) bool {
	adj, _ := g.Neighbors(v)
	for _, x := range adj {
		if x == u {
			return true
		}
	}
	return false
}

// TestContractInvariants checks the two conservation laws of contraction:
// total vertex weight per constraint is preserved, and the coarse graph's
// total edge weight equals the fine total minus the matched (collapsed)
// edge weight.
func TestContractInvariants(t *testing.T) {
	for _, m := range []int{1, 2, 4} {
		g := randomMesh(t, m, uint64(m)*13)
		rand := rng.New(uint64(m))
		match := Match(g, rand, Options{BalancedEdge: true})
		coarse, cmap := Contract(g, match)
		if err := coarse.Validate(); err != nil {
			t.Fatalf("m=%d: coarse graph invalid: %v", m, err)
		}

		ft, ct := g.TotalVertexWeight(), coarse.TotalVertexWeight()
		for c := 0; c < m; c++ {
			if ft[c] != ct[c] {
				t.Errorf("m=%d: constraint %d weight changed %d -> %d", m, c, ft[c], ct[c])
			}
		}

		var collapsed int64
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			u := match[v]
			if u > v {
				adj, wgt := g.Neighbors(v)
				for i, x := range adj {
					if x == u {
						collapsed += int64(wgt[i])
					}
				}
			}
		}
		if got, want := coarse.TotalEdgeWeight(), g.TotalEdgeWeight()-collapsed; got != want {
			t.Errorf("m=%d: coarse edge weight %d, want %d", m, got, want)
		}

		// cmap maps onto [0, coarseN) and matched pairs share a coarse id.
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			cv := cmap[v]
			if cv < 0 || int(cv) >= coarse.NumVertices() {
				t.Fatalf("cmap[%d] = %d out of range", v, cv)
			}
			if cmap[match[v]] != cv {
				t.Fatalf("pair (%d,%d) maps to different coarse vertices", v, match[v])
			}
		}
	}
}

// TestContractPreservesCut: any partition of the coarse graph, projected to
// the fine graph, has exactly the same edge-cut.
func TestContractPreservesCut(t *testing.T) {
	g := randomMesh(t, 2, 21)
	rand := rng.New(4)
	match := Match(g, rand, Options{})
	coarse, cmap := Contract(g, match)

	cpart := make([]int32, coarse.NumVertices())
	for i := range cpart {
		cpart[i] = int32(rand.Intn(4))
	}
	fpart := make([]int32, g.NumVertices())
	for v := range fpart {
		fpart[v] = cpart[cmap[v]]
	}
	if cc, fc := metrics.EdgeCut(coarse, cpart), metrics.EdgeCut(g, fpart); cc != fc {
		t.Errorf("projection changed cut: coarse %d, fine %d", cc, fc)
	}
}

func TestBuildHierarchyShrinks(t *testing.T) {
	g := randomMesh(t, 3, 5)
	levels, _ := BuildHierarchy(g, 200, rng.New(1), Options{BalancedEdge: true})
	if len(levels) < 2 {
		t.Fatalf("no coarsening happened: %d levels", len(levels))
	}
	if levels[0].Graph != g || levels[0].CMap != nil {
		t.Error("level 0 must be the input graph with nil CMap")
	}
	for i := 1; i < len(levels); i++ {
		finer, coarser := levels[i-1].Graph, levels[i].Graph
		if coarser.NumVertices() >= finer.NumVertices() {
			t.Errorf("level %d did not shrink: %d -> %d", i, finer.NumVertices(), coarser.NumVertices())
		}
		if len(levels[i].CMap) != finer.NumVertices() {
			t.Errorf("level %d CMap length %d, want %d", i, len(levels[i].CMap), finer.NumVertices())
		}
	}
	coarsest := levels[len(levels)-1].Graph
	if coarsest.NumVertices() > 400 {
		t.Errorf("coarsest has %d vertices, expected near 200", coarsest.NumVertices())
	}
}

func TestBalancedEdgeReducesCoarseJaggedness(t *testing.T) {
	// With strongly skewed per-vertex weights, the balanced-edge tie-break
	// should produce flatter coarse weight vectors on average.
	g := randomMesh(t, 4, 31)
	jag := func(balanced bool) float64 {
		match := Match(g, rng.New(8), Options{BalancedEdge: balanced})
		coarse, _ := Contract(g, match)
		sum := 0.0
		for v := int32(0); int(v) < coarse.NumVertices(); v++ {
			w := coarse.VertexWeight(v)
			var mx, s int64
			for _, x := range w {
				s += int64(x)
				if int64(x) > mx {
					mx = int64(x)
				}
			}
			if s > 0 {
				sum += float64(mx) * float64(len(w)) / float64(s)
			} else {
				sum += 1
			}
		}
		return sum / float64(coarse.NumVertices())
	}
	with, without := jag(true), jag(false)
	t.Logf("mean coarse jaggedness: with tie-break %.4f, without %.4f", with, without)
	if with > without*1.02 {
		t.Errorf("balanced-edge tie-break made coarse weights more jagged (%.4f > %.4f)", with, without)
	}
}
