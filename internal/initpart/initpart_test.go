package initpart

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
)

func TestBisectBalancedSingleConstraint(t *testing.T) {
	g := gen.Grid2D(20, 20)
	part := Bisect(g, rng.New(1), 0.5, 0.05, 4)
	pw := metrics.PartWeights(g, part, 2)
	total := float64(g.NumVertices())
	for s := 0; s < 2; s++ {
		frac := float64(pw[s]) / total
		if frac < 0.45 || frac > 0.55 {
			t.Errorf("side %d has fraction %.3f, want ~0.5", s, frac)
		}
	}
	cut := metrics.EdgeCut(g, part)
	if cut <= 0 || cut > 60 {
		t.Errorf("bisection cut = %d, want (0, 60] for a 20x20 grid (ideal 20)", cut)
	}
}

func TestBisectUnevenFractions(t *testing.T) {
	g := gen.Grid2D(24, 24)
	part := Bisect(g, rng.New(2), 0.25, 0.05, 4)
	pw := metrics.PartWeights(g, part, 2)
	// Balance is an upper bound per side: with tol 5%, side 1 may hold up
	// to 0.75*1.05 of the weight, so side 0 may legally hold as little as
	// 1 - 0.7875 = 0.2125.
	frac := float64(pw[0]) / float64(g.NumVertices())
	if frac < 0.21 || frac > 0.2875 {
		t.Errorf("side 0 fraction %.3f, want within [0.2125, 0.2625] plus slack", frac)
	}
}

func TestBisectMultiConstraint(t *testing.T) {
	base := gen.MRNGLike(10, 10, 10, 3)
	for _, m := range []int{2, 3, 5} {
		g := gen.Type1(base, m, 11)
		part := Bisect(g, rng.New(4), 0.5, 0.05, 4)
		pw := metrics.PartWeights(g, part, 2)
		total := g.TotalVertexWeight()
		for c := 0; c < m; c++ {
			if total[c] == 0 {
				continue
			}
			frac := float64(pw[c]) / float64(total[c])
			if frac < 0.42 || frac > 0.58 {
				t.Errorf("m=%d constraint %d: side-0 fraction %.3f, want ~0.5", m, c, frac)
			}
		}
	}
}

func TestBisectType2(t *testing.T) {
	base := gen.MRNGLike(10, 10, 10, 3)
	g := gen.Type2(base, 3, 11)
	part := Bisect(g, rng.New(4), 0.5, 0.05, 4)
	pw := metrics.PartWeights(g, part, 2)
	total := g.TotalVertexWeight()
	for c := 0; c < 3; c++ {
		frac := float64(pw[c]) / float64(total[c])
		if frac < 0.40 || frac > 0.60 {
			t.Errorf("type2 constraint %d: side-0 fraction %.3f", c, frac)
		}
	}
}

func TestRecursiveBisectAllK(t *testing.T) {
	base := gen.MRNGLike(8, 8, 8, 3)
	g := gen.Type1(base, 2, 11)
	for _, k := range []int{2, 3, 5, 8, 16} {
		part := RecursiveBisect(g, k, rng.New(uint64(k)), Options{Tol: 0.05})
		if err := metrics.CheckPartition(g, part, k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// All k parts populated.
		seen := make([]bool, k)
		for _, p := range part {
			seen[p] = true
		}
		for s, ok := range seen {
			if !ok {
				t.Errorf("k=%d: part %d empty", k, s)
			}
		}
		imb := metrics.MaxImbalance(g, part, k)
		if imb > 1.25 {
			t.Errorf("k=%d: initial imbalance %.3f too large", k, imb)
		}
	}
}

func TestRecursiveBisectDisconnected(t *testing.T) {
	// Two disconnected grids; the partitioner must still produce a valid,
	// reasonably balanced result.
	b := graph.NewBuilder(128, 1)
	id := func(block, x, y int) int32 { return int32(block*64 + y*8 + x) }
	for block := 0; block < 2; block++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				if x+1 < 8 {
					b.AddEdge(id(block, x, y), id(block, x+1, y), 1)
				}
				if y+1 < 8 {
					b.AddEdge(id(block, x, y), id(block, x, y+1), 1)
				}
			}
		}
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	part := RecursiveBisect(g, 4, rng.New(1), Options{})
	if err := metrics.CheckPartition(g, part, 4); err != nil {
		t.Fatal(err)
	}
	if imb := metrics.MaxImbalance(g, part, 4); imb > 1.3 {
		t.Errorf("disconnected imbalance %.3f", imb)
	}
}

func TestDominantScaling(t *testing.T) {
	total := []int64{1000, 10}
	// Raw weights (5, 1): constraint 1 is relatively dominant (1/10 > 5/1000).
	if d := dominant([]int32{5, 1}, total); d != 1 {
		t.Errorf("dominant = %d, want 1 (scaled)", d)
	}
	if d := dominant([]int32{5, 0}, total); d != 0 {
		t.Errorf("dominant = %d, want 0", d)
	}
	// Zero-total constraints are skipped.
	if d := dominant([]int32{0, 9}, []int64{100, 0}); d != 0 {
		t.Errorf("dominant = %d, want 0 when constraint 1 has no total", d)
	}
}

// TestRecursiveBisectStop: a stop hook that never fires changes no label,
// at one trial worker and at two; one that fires mid-run ends it early
// with every label in [0,k).
func TestRecursiveBisectStop(t *testing.T) {
	g := gen.Type1(gen.MRNGLike(10, 10, 10, 1), 3, 5)
	const k = 16
	for _, workers := range []int{1, 2} {
		want := RecursiveBisect(g, k, rng.New(3), Options{TrialWorkers: workers})
		got := RecursiveBisect(g, k, rng.New(3), Options{TrialWorkers: workers, Stop: func() bool { return false }})
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("workers=%d: an unfired stop hook changed vertex %d's label: %d, want %d", workers, v, got[v], want[v])
			}
		}
	}
	for _, after := range []int{0, 1, 7, 40} {
		polls := 0
		part := RecursiveBisect(g, k, rng.New(3), Options{TrialWorkers: 1, Stop: func() bool {
			polls++
			return polls > after
		}})
		for v, p := range part {
			if p < 0 || p >= k {
				t.Fatalf("stopped after %d polls: vertex %d has label %d, outside [0,%d)", after, v, p, k)
			}
		}
		if polls > after+2*k {
			t.Errorf("stopped after %d polls, but polled %d times in all", after, polls)
		}
	}
}
