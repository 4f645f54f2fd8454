package coarsen

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/par"
	"repro/internal/rng"
)

// Kernel-level pins of the determinism contract: each kernel, fed the
// same graph and RNG stream as its oracle in reference_test.go, must
// return exactly the same bytes — match arrays, cmaps, and coarse CSR
// graphs — at every worker count. The full-pipeline property lives in the
// root coarsen_workers_test.go and golden_test.go; these tests isolate one
// kernel each so a violation names the culprit directly. The graphs are
// far below minParallelN, which only BuildHierarchy consults: a scratch
// built for w workers runs its kernels on w workers at any size, so the
// pooled paths are exercised where failures are diffable.

var kernelWorkerCounts = []int{1, 2, 3, 4, 8}

func graphsEqual(a, b *graph.Graph) error {
	if a.Ncon != b.Ncon {
		return fmt.Errorf("ncon %d vs %d", a.Ncon, b.Ncon)
	}
	if err := sliceEq("xadj", a.Xadj, b.Xadj); err != nil {
		return err
	}
	if err := sliceEq("adjncy", a.Adjncy, b.Adjncy); err != nil {
		return err
	}
	if err := sliceEq("adjwgt", a.Adjwgt, b.Adjwgt); err != nil {
		return err
	}
	return sliceEq("vwgt", a.Vwgt, b.Vwgt)
}

func sliceEq(name string, a, b []int32) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s[%d] = %d vs %d", name, i, a[i], b[i])
		}
	}
	return nil
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// kernelGraphs is the test matrix: a single-constraint mesh (where the
// tie-break cannot fire), a multi-constraint mesh (the jaggedness
// tie-break), and a power-law graph (hub-degree propose ranges, the rescan
// stress case).
func kernelGraphs(t *testing.T) []namedGraph {
	t.Helper()
	return []namedGraph{
		{"mesh-m1", gen.MRNGLike(10, 10, 10, 7)},
		{"mesh-m3", randomMesh(t, 3, 7)},
		{"powerlaw", gen.PowerLaw(3000, 8, 2.5, 11)},
	}
}

func TestMatchParMatchesSequential(t *testing.T) {
	for _, kg := range kernelGraphs(t) {
		name, g := kg.name, kg.g
		for _, balanced := range []bool{false, true} {
			for _, maxW := range []int64{0, 40} {
				opt := Options{BalancedEdge: balanced, MaxVertexWeight: maxW}
				want := refMatch(g, rng.New(42), opt)
				for _, w := range kernelWorkerCounts {
					s := newScratch(w)
					got, chunks, _ := matchInto(g, rng.New(42), opt, s)
					if w > 1 && chunks < 1 {
						t.Errorf("%s workers=%d: no chunks ran", name, w)
					}
					if err := sliceEq("match", got, want); err != nil {
						t.Errorf("%s workers=%d balanced=%v maxW=%d: %v", name, w, balanced, maxW, err)
					}
					s.close()
				}
			}
		}
	}
}

func TestContractParMatchesSequential(t *testing.T) {
	for _, kg := range kernelGraphs(t) {
		name, g := kg.name, kg.g
		match := refMatch(g, rng.New(42), Options{BalancedEdge: true, MaxVertexWeight: 60})
		wantG, wantCmap := refContract(g, match)
		for _, w := range kernelWorkerCounts {
			s, hlv := newScratch(w), newLevel(g)
			gotCmap := hlv.CMap()
			nc, head, members := pairClusters(match, gotCmap, s)
			gotG := contract(g, gotCmap, nc, head, members, s, hlv)
			if err := sliceEq("cmap", gotCmap, wantCmap); err != nil {
				t.Errorf("%s workers=%d: %v", name, w, err)
			}
			if err := graphsEqual(gotG, wantG); err != nil {
				t.Errorf("%s workers=%d: coarse graph: %v", name, w, err)
			}
			s.close()
		}
	}
}

func TestContractMapParMatchesSequential(t *testing.T) {
	for _, kg := range kernelGraphs(t) {
		name, g := kg.name, kg.g
		caps := make([]int64, g.Ncon)
		for c, tot := range g.TotalVertexWeight() {
			caps[c] = 1 + tot/16
		}
		cmap, nc := lp.Cluster(g, rng.New(9), lp.Options{MaxClusterWeight: caps})
		want := refContractMap(g, cmap, nc)
		for _, w := range kernelWorkerCounts {
			s := newScratch(w)
			head, members := clusterMembers(cmap, nc, s)
			got := contract(g, cmap, nc, head, members, s, newLevel(g))
			if err := graphsEqual(got, want); err != nil {
				t.Errorf("%s workers=%d: coarse graph: %v", name, w, err)
			}
			s.close()
		}
	}
}

// TestLPClusterParMatchesSequential pins the LP propose/commit rounds
// against the sequential pass on the clustering's own output (cmap and
// cluster count), per worker count, with and without weight caps.
func TestLPClusterParMatchesSequential(t *testing.T) {
	for _, kg := range kernelGraphs(t) {
		name, g := kg.name, kg.g
		for _, withCaps := range []bool{false, true} {
			var caps []int64
			if withCaps {
				caps = make([]int64, g.Ncon)
				for c, tot := range g.TotalVertexWeight() {
					caps[c] = 1 + tot/16
				}
			}
			wantCmap, wantNC := lp.Cluster(g, rng.New(5), lp.Options{MaxClusterWeight: caps})
			for _, w := range kernelWorkerCounts {
				pool := par.NewPool(w)
				gotCmap, gotNC := lp.Cluster(g, rng.New(5), lp.Options{MaxClusterWeight: caps, Pool: pool})
				if gotNC != wantNC {
					t.Errorf("%s workers=%d caps=%v: nc = %d, want %d", name, w, withCaps, gotNC, wantNC)
				}
				if err := sliceEq("cmap", gotCmap, wantCmap); err != nil {
					t.Errorf("%s workers=%d caps=%v: %v", name, w, withCaps, err)
				}
				pool.Close()
			}
		}
	}
}

// TestBuildHierarchyWorkersInvariant runs the whole coarsening stack — the
// only place minParallelN, scratch reuse across levels, and the scheme
// dispatch compose — and requires identical hierarchies per worker count,
// for both schemes.
func TestBuildHierarchyWorkersInvariant(t *testing.T) {
	// Both graphs start above minParallelN so at least the finest levels
	// run on the pool before the gate drops to one worker.
	graphs := []namedGraph{
		{"mesh-m3", gen.Type1(gen.MRNGLike(16, 16, 16, 3), 3, 3)},
		{"powerlaw", gen.PowerLaw(6000, 8, 2.5, 13)},
	}
	for _, kg := range graphs {
		name, g := kg.name, kg.g
		for _, scheme := range []Scheme{SchemeMatching, SchemeCluster} {
			want, _ := BuildHierarchy(g, 64, rng.New(2), Options{Scheme: scheme, Tol: 0.05, BalancedEdge: true})
			for _, w := range []int{2, 4} {
				got, _ := BuildHierarchy(g, 64, rng.New(2), Options{Scheme: scheme, Tol: 0.05, BalancedEdge: true, Workers: w})
				if len(got) != len(want) {
					t.Errorf("%s scheme=%v workers=%d: %d levels, want %d", name, scheme, w, len(got), len(want))
					continue
				}
				for i := range got {
					if err := graphsEqual(got[i].Graph, want[i].Graph); err != nil {
						t.Errorf("%s scheme=%v workers=%d level %d: %v", name, scheme, w, i, err)
					}
					if i > 0 {
						if err := sliceEq("cmap", got[i].CMap, want[i].CMap); err != nil {
							t.Errorf("%s scheme=%v workers=%d level %d: %v", name, scheme, w, i, err)
						}
					}
				}
			}
		}
	}
}
