package gen

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/vecw"
)

func TestGrid2DShape(t *testing.T) {
	g := Grid2D(4, 3)
	if g.NumVertices() != 12 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// Edges of a w×h grid: (w-1)*h + w*(h-1) = 3*3 + 4*2 = 17.
	if g.NumEdges() != 17 {
		t.Fatalf("edges = %d, want 17", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGrid3DShape(t *testing.T) {
	g := Grid3D(3, 3, 3)
	if g.NumVertices() != 27 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// 3*(n-1)*n*n edges per axis: 3 * 2*3*3 = 54.
	if g.NumEdges() != 54 {
		t.Fatalf("edges = %d, want 54", g.NumEdges())
	}
}

func TestMRNGLikeProperties(t *testing.T) {
	g := MRNGLike(12, 12, 12, 7)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	ratio := float64(g.NumEdges()) / float64(n)
	// The paper's mrng graphs have ~3.9 edges per vertex; boundary effects
	// lower small instances somewhat.
	if ratio < 3.0 || ratio > 4.2 {
		t.Errorf("edge/vertex ratio = %.2f, want mrng-like ~3-4.2", ratio)
	}
	// Bounded degree (the paper's scalability analysis assumption).
	for v := int32(0); int(v) < n; v++ {
		if g.Degree(v) > 12 {
			t.Fatalf("vertex %d degree %d; meshes must have small bounded degree", v, g.Degree(v))
		}
	}
	// Connected (single component).
	if _, count := g.Components(); count != 1 {
		t.Errorf("mesh has %d components, want 1", count)
	}
}

func TestMRNGLikeDeterministic(t *testing.T) {
	a := MRNGLike(8, 8, 8, 3)
	b := MRNGLike(8, 8, 8, 3)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different meshes")
	}
	c := MRNGLike(8, 8, 8, 4)
	if a.NumEdges() == c.NumEdges() {
		t.Log("different seeds produced equal edge counts (possible but unlikely)")
	}
}

func TestMeshSpecs(t *testing.T) {
	for _, list := range [][]MeshSpec{PaperMeshes, ScaledMeshes, TinyMeshes} {
		for i, s := range list {
			if s.Vertices() <= 0 {
				t.Errorf("%s: no vertices", s.Name)
			}
			if i > 0 {
				r := float64(s.Vertices()) / float64(list[i-1].Vertices())
				if r < 1.5 || r > 5.0 {
					t.Errorf("%s: size progression %.1fx, want ~4x", s.Name, r)
				}
			}
		}
	}
	if _, ok := MeshByName("mrng3s"); !ok {
		t.Error("MeshByName(mrng3s) failed")
	}
	if _, ok := MeshByName("nope"); ok {
		t.Error("MeshByName(nope) should fail")
	}
}

func TestRegionsContiguity(t *testing.T) {
	g := Grid2D(16, 16)
	labels := Regions(g, 8, 7)
	// Every region non-empty.
	sizes := make([]int, 8)
	for _, l := range labels {
		sizes[l]++
	}
	for r, s := range sizes {
		if s == 0 {
			t.Fatalf("region %d empty", r)
		}
	}
	// Contiguity: the subgraph induced by each region is connected.
	for r := 0; r < 8; r++ {
		keep := make([]bool, g.NumVertices())
		for v, l := range labels {
			keep[v] = int(l) == r
		}
		sub, _ := g.InducedSubgraph(keep)
		if _, count := sub.Components(); count != 1 {
			t.Errorf("region %d is not contiguous (%d components)", r, count)
		}
	}
}

func TestRegionsEdgeCases(t *testing.T) {
	g := Grid2D(3, 1)
	labels := Regions(g, 10, 1) // more regions than vertices
	for _, l := range labels {
		if l < 0 || l >= 3 {
			t.Fatalf("label %d out of clamped range", l)
		}
	}
	// An empty graph gets no labels, and its overlays are empty graphs.
	empty := Grid2D(0, 0)
	if labels := Regions(empty, 16, 1); len(labels) != 0 {
		t.Fatalf("empty graph: %d labels", len(labels))
	}
	if g := Type2(Type1(empty, 2, 1), 3, 1); g.NumVertices() != 0 {
		t.Fatalf("empty overlay has %d vertices", g.NumVertices())
	}
}

func TestType1Structure(t *testing.T) {
	base := Grid3D(8, 8, 8)
	g := Type1(base, 3, 42)
	if g.Ncon != 3 {
		t.Fatalf("Ncon = %d", g.Ncon)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Weight entries in [0, 20).
	for _, w := range g.Vwgt {
		if w < 0 || w >= 20 {
			t.Fatalf("weight %d out of [0,20)", w)
		}
	}
	// At most 16 distinct weight vectors (one per region).
	distinct := map[[3]int32]bool{}
	for v := 0; v < g.NumVertices(); v++ {
		w := g.VertexWeight(int32(v))
		distinct[[3]int32{w[0], w[1], w[2]}] = true
	}
	if len(distinct) > 16 {
		t.Errorf("%d distinct weight vectors, want <= 16 regions", len(distinct))
	}
	// No zero-total constraint.
	for c, tot := range g.TotalVertexWeight() {
		if tot == 0 {
			t.Errorf("constraint %d has zero total", c)
		}
	}
}

func TestType2Structure(t *testing.T) {
	base := Grid3D(8, 8, 8)
	for _, m := range []int{2, 3, 4, 5} {
		g := Type2(base, m, 42)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		// Phase 1 is 100% active: every vertex has weight 1 in component 0.
		for v := 0; v < g.NumVertices(); v++ {
			if g.VertexWeight(int32(v))[0] != 1 {
				t.Fatalf("m=%d: vertex %d not active in phase 0", m, v)
			}
		}
		// Active fractions decrease per the paper's schedule.
		totals := g.TotalVertexWeight()
		frac := ActiveFractions(m)
		n := float64(g.NumVertices())
		for c := 1; c < m; c++ {
			got := float64(totals[c]) / n
			if got < frac[c]-0.25 || got > frac[c]+0.25 {
				t.Errorf("m=%d phase %d active fraction %.2f, schedule %.2f", m, c, got, frac[c])
			}
		}
		// Edge weights equal the co-activity count.
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			adj, wgt := g.Neighbors(v)
			for i, u := range adj {
				var want int32
				for c := 0; c < m; c++ {
					if g.VertexWeight(v)[c] == 1 && g.VertexWeight(u)[c] == 1 {
						want++
					}
				}
				if wgt[i] != want {
					t.Fatalf("edge (%d,%d) weight %d, want co-activity %d", v, u, wgt[i], want)
				}
			}
		}
	}
}

func TestActiveFractionsPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for m=6")
		}
	}()
	ActiveFractions(6)
}

func TestRandomWeightsUniformish(t *testing.T) {
	base := Grid3D(10, 10, 10)
	g := RandomWeights(base, 2, 9)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The point of the ablation: any equal-count split is near-balanced on
	// every constraint. Mean weight should be ~9.5.
	tot := g.TotalVertexWeight()
	n := float64(g.NumVertices())
	for c, s := range tot {
		if mean := float64(s) / n; mean < 8.5 || mean > 10.5 {
			t.Errorf("constraint %d mean weight %.2f, want ~9.5", c, mean)
		}
	}
}

func TestType1TopologySharedWithBase(t *testing.T) {
	base := Grid2D(10, 10)
	g := Type1(base, 2, 1)
	if &g.Xadj[0] != &base.Xadj[0] {
		t.Error("Type1 should share topology arrays with the base graph")
	}
	// Jaggedness sanity: workload vectors exercise vecw.
	_ = vecw.JaggednessI32(g.VertexWeight(0))
}

var meshSink *graph.Graph

// BenchmarkMRNGLike times building the mrng1 stand-in at the scaled and
// the paper's size: the generator's edges and Builder.Finish.
func BenchmarkMRNGLike(b *testing.B) {
	for _, name := range []string{"mrng1s", "mrng1"} {
		spec, _ := MeshByName(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				meshSink = spec.Build(uint64(i)*7919 + 7)
			}
		})
	}
}
