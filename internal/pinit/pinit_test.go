package pinit

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pgraph"
	"repro/internal/rng"
)

func TestPartitionAgreesAcrossRanks(t *testing.T) {
	g := gen.Type1(gen.MRNGLike(8, 8, 8, 3), 2, 7)
	const k, p = 8, 4
	parts := make([][]int32, p)
	cuts := make([]int64, p)
	mpi.Run(p, mpi.Zero(), func(c *mpi.Comm) {
		dg := pgraph.Distribute(c, g)
		part, st := Partition(dg, k, rng.New(1).Derive(uint64(c.Rank())), Options{Tol: 0.05})
		parts[c.Rank()] = part
		cuts[c.Rank()] = st.Cut
	})
	for r := 1; r < p; r++ {
		if cuts[r] != cuts[0] {
			t.Fatalf("rank %d reports cut %d, rank 0 %d", r, cuts[r], cuts[0])
		}
		for v := range parts[0] {
			if parts[r][v] != parts[0][v] {
				t.Fatalf("rank %d disagrees with rank 0 at vertex %d", r, v)
			}
		}
	}
	// The winner's cut must match the labels it broadcast.
	if got := metrics.EdgeCut(g, parts[0]); got != cuts[0] {
		t.Errorf("broadcast cut %d, recomputed %d", cuts[0], got)
	}
	if err := metrics.CheckPartition(g, parts[0], k); err != nil {
		t.Fatal(err)
	}
	if imb := metrics.MaxImbalance(g, parts[0], k); imb > 1.20 {
		t.Errorf("initial imbalance %.3f", imb)
	}
}

// TestBestOfPBeatsTypicalSingle: eight ranks share the recursive bisection
// (each node's best of its group's trials) and keep the best of their eight
// k-way refinements; that should on average be at least as good as a
// single p=1 attempt with the same master seed.
func TestBestOfPBeatsTypicalSingle(t *testing.T) {
	g := gen.Type1(gen.MRNGLike(8, 8, 8, 3), 2, 7)
	const k = 8
	cutAt := func(p int) int64 {
		var cut int64
		mpi.Run(p, mpi.Zero(), func(c *mpi.Comm) {
			dg := pgraph.Distribute(c, g)
			_, st := Partition(dg, k, rng.New(1).Derive(uint64(c.Rank())), Options{Tol: 0.05})
			if c.Rank() == 0 {
				cut = st.Cut
			}
		})
		return cut
	}
	single := cutAt(1)
	best8 := cutAt(8)
	t.Logf("p=1 cut %d, best-of-8 cut %d", single, best8)
	if best8 > single*11/10 {
		t.Errorf("best-of-8 (%d) much worse than single attempt (%d)", best8, single)
	}
}

// groupRun is one rank's outcome of a Partition call.
type groupRun struct {
	part []int32
	st   Stats
}

// runGroups runs Partition on p ranks with master seed 1 and returns each
// rank's outcome.
func runGroups(g *graph.Graph, k, p int, opt Options) []groupRun {
	runs := make([]groupRun, p)
	mpi.Run(p, mpi.Zero(), func(c *mpi.Comm) {
		dg := pgraph.Distribute(c, g)
		part, st := Partition(dg, k, rng.New(1).Derive(uint64(c.Rank())), opt)
		runs[c.Rank()] = groupRun{part, st}
	})
	return runs
}

// checkGroupRuns fails unless every rank returned the same labels, all in
// [0,k), and the same cut, which must be the labels' cut.
func checkGroupRuns(t *testing.T, g *graph.Graph, k int, runs []groupRun) {
	t.Helper()
	want := runs[0]
	if len(want.part) != g.NumVertices() {
		t.Fatalf("rank 0 returned %d labels for %d vertices", len(want.part), g.NumVertices())
	}
	for v, l := range want.part {
		if l < 0 || int(l) >= k {
			t.Fatalf("vertex %d has label %d outside [0,%d)", v, l, k)
		}
	}
	if got := metrics.EdgeCut(g, want.part); got != want.st.Cut {
		t.Fatalf("rank 0 reports cut %d, its labels cut %d", want.st.Cut, got)
	}
	for r, run := range runs[1:] {
		if run.st.Cut != want.st.Cut {
			t.Fatalf("rank %d reports cut %d, rank 0 %d", r+1, run.st.Cut, want.st.Cut)
		}
		if !slices.Equal(run.part, want.part) {
			t.Fatalf("rank %d returned other labels than rank 0", r+1)
		}
	}
}

// TestGroupShapes runs the initial partitioning on every group shape of
// p ∈ {1, 2, 3, 5, 16} ranks and k ∈ {1, 2, 3, 7, 64} parts: uneven
// splits, sides of one part, groups larger than their part count. Every
// rank must return the same labels and cut, at TrialWorkers 1 and 4 alike.
func TestGroupShapes(t *testing.T) {
	g := gen.Type1(gen.MRNGLike(8, 8, 8, 3), 2, 7)
	for _, p := range []int{1, 2, 3, 5, 16} {
		for _, k := range []int{1, 2, 3, 7, 64} {
			t.Run(fmt.Sprintf("p%d/k%d", p, k), func(t *testing.T) {
				seq := runGroups(g, k, p, Options{Tol: 0.05, TrialWorkers: 1})
				checkGroupRuns(t, g, k, seq)
				con := runGroups(g, k, p, Options{Tol: 0.05, TrialWorkers: 4})
				checkGroupRuns(t, g, k, con)
				if !slices.Equal(seq[0].part, con[0].part) {
					t.Fatal("labels differ between TrialWorkers 1 and 4")
				}
			})
		}
	}
}

// TestGroupFewerVerticesThanRanks: a gathered graph of three vertices on
// five ranks leaves empty sides and idle ranks; the labels must still
// agree and cover every vertex.
func TestGroupFewerVerticesThanRanks(t *testing.T) {
	g := gen.Grid2D(3, 1)
	for _, k := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			checkGroupRuns(t, g, k, runGroups(g, k, 5, Options{Tol: 0.05, TrialWorkers: 1}))
		})
	}
}

// TestGroupZeroWeightConstraint: a constraint that weighs nothing anywhere
// must not upset the group bisections or their score exchange.
func TestGroupZeroWeightConstraint(t *testing.T) {
	g := gen.Type1(gen.MRNGLike(8, 8, 8, 3), 2, 7).Clone()
	g.Vwgt = slices.Clone(g.Vwgt)
	for v := 0; v < g.NumVertices(); v++ {
		g.Vwgt[v*g.Ncon+1] = 0
	}
	for _, p := range []int{3, 16} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			runs := runGroups(g, 8, p, Options{Tol: 0.05, TrialWorkers: 1})
			checkGroupRuns(t, g, 8, runs)
			if imb := metrics.MaxImbalance(g, runs[0].part, 8); imb > 1.20 {
				t.Errorf("initial imbalance %.3f", imb)
			}
		})
	}
}

// TestGroupTrialCount pins the work a rank does, as a count: at p=16,
// k=64 and 4 trials a rank bisects the four shared nodes on its path
// (k = 64, 32, 16, 8) and the three nodes of its own k=4 subtree, 28
// trials in all, where each rank running the whole recursive bisection
// would run 63 nodes and 252 trials, as p=1 still does.
func TestGroupTrialCount(t *testing.T) {
	g := gen.Type1(gen.MRNGLike(16, 16, 16, 3), 1, 7)
	cases := []struct{ p, nodes, trials int }{
		{16, 7, 28},
		{1, 63, 252},
	}
	for _, tc := range cases {
		runs := runGroups(g, 64, tc.p, Options{Tol: 0.05, Trials: 4})
		checkGroupRuns(t, g, 64, runs)
		for r, run := range runs {
			if run.st.Bisections != tc.nodes || run.st.Trials != tc.trials {
				t.Errorf("p=%d rank %d ran %d bisections and %d trials, want %d and %d",
					tc.p, r, run.st.Bisections, run.st.Trials, tc.nodes, tc.trials)
			}
		}
	}
}

// TestSplitGroup pins the group tree's arithmetic: proportional shares,
// sides of one part taking no ranks, and the depth every rank iterates.
func TestSplitGroup(t *testing.T) {
	for _, tc := range []struct{ size, k, s0 int }{
		{16, 64, 8}, {3, 64, 2}, {5, 7, 3}, {2, 7, 1}, {16, 5, 10}, {16, 3, 16}, {4, 2, 4},
	} {
		if got := splitGroup(tc.size, tc.k); got != tc.s0 {
			t.Errorf("splitGroup(%d, %d) = %d, want %d", tc.size, tc.k, got, tc.s0)
		}
	}
	for _, tc := range []struct{ size, k, depth int }{
		{1, 64, 0}, {16, 1, 0}, {16, 64, 4}, {64, 64, 6}, {16, 2, 1}, {16, 3, 2}, {3, 64, 2},
	} {
		if got := groupDepth(tc.size, tc.k); got != tc.depth {
			t.Errorf("groupDepth(%d, %d) = %d, want %d", tc.size, tc.k, got, tc.depth)
		}
	}
}

// TestGroupStop: a Stop that fired before the first trial skips every
// bisection trial, at the shared nodes as in each rank's own subtree, and
// every refinement pass, yet every rank still reaches every collective and
// returns the same labels: all in part 0, since no bisection moved a
// vertex off side 0.
func TestGroupStop(t *testing.T) {
	g := gen.Type1(gen.MRNGLike(8, 8, 8, 3), 2, 7)
	for _, p := range []int{1, 4, 16} {
		runs := runGroups(g, 8, p, Options{Tol: 0.05, Stop: func() bool { return true }})
		checkGroupRuns(t, g, 8, runs)
		for v, l := range runs[0].part {
			if l != 0 {
				t.Fatalf("p=%d: vertex %d in part %d after every trial was skipped", p, v, l)
			}
		}
	}
}
