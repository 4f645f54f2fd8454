package lp

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// path builds a weighted path graph a-b-c-... with the given edge weights.
func path(vw [][]int32, ew []int32) *graph.Graph {
	b := graph.NewBuilder(len(vw), len(vw[0]))
	for v, w := range vw {
		b.SetVertexWeight(int32(v), w)
	}
	for i, w := range ew {
		b.AddEdge(int32(i), int32(i+1), w)
	}
	return b.MustFinish()
}

func TestClusterMergesByConnectingWeight(t *testing.T) {
	// Path 0-1-2-3 with a heavy middle edge: 1 and 2 must end up together.
	// Cap 3 leaves room for the heavy pair to unite even after a light
	// neighbor has already joined one of them.
	g := path([][]int32{{1}, {1}, {1}, {1}}, []int32{1, 10, 1})
	cmap, nc := Cluster(g, rng.New(1), Options{MaxClusterWeight: []int64{3}})
	if nc >= 4 {
		t.Fatalf("no consolidation: nc = %d", nc)
	}
	if cmap[1] != cmap[2] {
		t.Errorf("heavy edge endpoints split: cmap = %v", cmap)
	}
}

func TestClusterRespectsCaps(t *testing.T) {
	// Star: center 0 with 8 unit leaves, cap 3. Without the cap everything
	// would pile onto the center; with it every cluster must stay <= 3.
	b := graph.NewBuilder(9, 1)
	for v := int32(1); v < 9; v++ {
		b.AddEdge(0, v, 1)
	}
	g := b.MustFinish()
	cmap, nc := Cluster(g, rng.New(3), Options{MaxClusterWeight: []int64{3}})
	sums := make([]int64, nc)
	members := make([]int, nc)
	for v, cv := range cmap {
		sums[cv] += int64(g.Vwgt[v])
		members[cv]++
	}
	for cv, s := range sums {
		if members[cv] >= 2 && s > 3 {
			t.Errorf("cluster %d weight %d exceeds cap 3 (members %d)", cv, s, members[cv])
		}
	}
	if nc >= 9 {
		t.Error("no consolidation at all")
	}
}

func TestClusterMultiConstraintCaps(t *testing.T) {
	// Two constraints; vertex 2 is light in constraint 0 but heavy in
	// constraint 1, so merging it must be blocked by the second cap alone.
	g := path([][]int32{{1, 1}, {1, 1}, {1, 5}}, []int32{1, 100})
	cmap, _ := Cluster(g, rng.New(1), Options{MaxClusterWeight: []int64{10, 5}})
	if cmap[2] == cmap[1] {
		t.Errorf("merge across constraint-1 cap: cmap = %v", cmap)
	}
}

func TestClusterOversizedVertexStaysSingleton(t *testing.T) {
	// A vertex heavier than the cap is legal input; it just never merges.
	g := path([][]int32{{10}, {1}, {1}}, []int32{5, 5})
	cmap, _ := Cluster(g, rng.New(1), Options{MaxClusterWeight: []int64{4}})
	if cmap[0] == cmap[1] {
		t.Errorf("oversized vertex merged: cmap = %v", cmap)
	}
	if cmap[1] != cmap[2] {
		t.Errorf("feasible pair not merged: cmap = %v", cmap)
	}
}

func TestClusterDeterministic(t *testing.T) {
	g := gen.PowerLaw(5000, 8, 2.5, 11)
	opt := Options{MaxClusterWeight: []int64{64}}
	a, na := Cluster(g, rng.New(5), opt)
	b, nb := Cluster(g, rng.New(5), opt)
	if na != nb {
		t.Fatalf("cluster counts differ: %d vs %d", na, nb)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("cmap diverges at vertex %d: %d vs %d", v, a[v], b[v])
		}
	}
	c, _ := Cluster(g, rng.New(6), opt)
	same := true
	for v := range a {
		if a[v] != c[v] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical clusterings")
	}
}

func TestClusterDenseIDs(t *testing.T) {
	g := gen.PowerLaw(2000, 8, 2.5, 2)
	cmap, nc := Cluster(g, rng.New(1), Options{MaxClusterWeight: []int64{32}})
	seen := make([]bool, nc)
	for v, cv := range cmap {
		if cv < 0 || int(cv) >= nc {
			t.Fatalf("cmap[%d] = %d out of [0,%d)", v, cv, nc)
		}
		seen[cv] = true
	}
	for cv, ok := range seen {
		if !ok {
			t.Errorf("cluster id %d unused — ids not dense", cv)
		}
	}
	// First-appearance numbering: cmap[0] must be 0, and each new id must
	// be exactly one above the maximum seen so far.
	maxSeen := int32(-1)
	for v, cv := range cmap {
		if cv > maxSeen {
			if cv != maxSeen+1 {
				t.Fatalf("vertex %d introduces id %d, want %d (first-appearance order)", v, cv, maxSeen+1)
			}
			maxSeen = cv
		}
	}
}

func TestClusterShrinksPowerLawFast(t *testing.T) {
	// The reason this package exists: one LP pass on a power-law graph must
	// shrink it far below the ~1/2 bound a maximal matching could reach.
	g := gen.PowerLaw(20000, 8, 2.5, 9)
	caps := []int64{int64(g.NumVertices()) / 100}
	_, nc := Cluster(g, rng.New(1), Options{MaxClusterWeight: caps})
	if nc > g.NumVertices()/3 {
		t.Errorf("one LP pass left %d of %d vertices — worse than matching", nc, g.NumVertices())
	}
}

func TestClusterStop(t *testing.T) {
	g := gen.PowerLaw(1000, 6, 2.5, 1)
	cmap, nc := Cluster(g, rng.New(1), Options{Stop: func() bool { return true }})
	if cmap != nil || nc != 0 {
		t.Errorf("Stop ignored: cmap=%v nc=%d", cmap != nil, nc)
	}
}

// TestClusterIntoAllocBudget pins the Scratch pooling contract: once a
// Scratch has been warmed by one call of the largest size, further
// ClusterInto calls allocate nothing but the returned cmap — the arena
// slabs, the markers, and the candidate buffers are all reused. The same
// contract backs BuildHierarchy's one-Scratch-per-hierarchy reuse, where
// the finest level warms the slabs for every coarser one. Budget 2: the
// cmap and the occasional size-class rounding of its make.
func TestClusterIntoAllocBudget(t *testing.T) {
	g := gen.PowerLaw(20000, 8, 2.5, 3)
	caps := []int64{1 + g.TotalVertexWeight()[0]/64}
	s := NewScratch()
	opt := Options{MaxClusterWeight: caps}
	ClusterInto(g, rng.New(7), opt, s) // warm the pooled buffers

	const budget = 2.0
	got := testing.AllocsPerRun(5, func() {
		ClusterInto(g, rng.New(7), opt, s)
	})
	t.Logf("warm ClusterInto (n=%d): %.0f allocs/op (budget %.0f)", g.NumVertices(), got, budget)
	if got > budget {
		t.Errorf("clustering allocations regressed: %.0f/op exceeds the committed budget of %.0f", got, budget)
	}
}

// TestClusterWrapperMatchesClusterInto pins that the Cluster convenience
// wrapper and a ClusterInto reusing one Scratch agree bit for bit.
func TestClusterWrapperMatchesClusterInto(t *testing.T) {
	g := gen.PowerLaw(5000, 8, 2.5, 21)
	caps := []int64{1 + g.TotalVertexWeight()[0]/32}
	opt := Options{MaxClusterWeight: caps}
	wantCmap, wantNC := Cluster(g, rng.New(3), opt)
	s := NewScratch()
	for i := 0; i < 3; i++ { // reuse across calls must not leak state
		gotCmap, gotNC := ClusterInto(g, rng.New(3), opt, s)
		if gotNC != wantNC {
			t.Fatalf("call %d: nc = %d, want %d", i, gotNC, wantNC)
		}
		for v := range gotCmap {
			if gotCmap[v] != wantCmap[v] {
				t.Fatalf("call %d: cmap[%d] = %d, want %d", i, v, gotCmap[v], wantCmap[v])
			}
		}
	}
}
