package coarsen

import (
	"testing"

	"repro/internal/check"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// randomClusterMap builds an arbitrary valid dense cluster assignment: a
// random target count, random labels, then first-appearance renumbering so
// ids are dense — the contract ContractMap requires.
func randomClusterMap(n int, r *rng.RNG) ([]int32, int) {
	target := 1 + r.Intn(n)
	raw := make([]int32, n)
	for v := range raw {
		raw[v] = int32(r.Intn(target))
	}
	remap := make([]int32, target)
	for i := range remap {
		remap[i] = -1
	}
	nc := int32(0)
	for v, l := range raw {
		if remap[l] < 0 {
			remap[l] = nc
			nc++
		}
		raw[v] = remap[l]
	}
	return raw, int(nc)
}

// TestContractMapConservation is the many-to-one contraction property test:
// for arbitrary valid cluster assignments, contraction conserves total
// vertex weight per constraint and total exposed edge weight equals the
// fine total minus the weight collapsed inside clusters. Runs under -race
// in CI (the race matrix includes this package).
func TestContractMapConservation(t *testing.T) {
	r := rng.New(2026)
	graphs := []*graph.Graph{
		gen.Type1(gen.MRNGLike(6, 6, 6, 3), 3, 5),
		gen.Type2(gen.Grid2D(17, 13), 2, 6),
		gen.PowerLaw(600, 6, 2.5, 4),
	}
	for gi, g := range graphs {
		n := g.NumVertices()
		for trial := 0; trial < 30; trial++ {
			cmap, nc := randomClusterMap(n, r)
			coarse := ContractMap(g, cmap, nc)
			if err := coarse.Validate(); err != nil {
				t.Fatalf("graph %d trial %d: invalid coarse graph: %v", gi, trial, err)
			}
			if coarse.NumVertices() != nc {
				t.Fatalf("graph %d trial %d: %d coarse vertices, want %d", gi, trial, coarse.NumVertices(), nc)
			}
			// check.VerifyCoarsening is exactly the conservation property:
			// per-coarse-vertex weight sums per constraint, plus fine edge
			// total = coarse total + intra-cluster collapsed weight.
			if err := check.VerifyCoarsening(g, coarse, cmap); err != nil {
				t.Fatalf("graph %d trial %d: %v", gi, trial, err)
			}
		}
	}
}

// TestContractMapMatchesContract pins the kernel fed a cluster map
// against the matched-pair oracle on the cmap the matching itself
// produced: grouping the pairs by counting sort instead of by matching
// must give the same coarse CSR at every worker count, and so must the
// public ContractMap and Contract.
func TestContractMapMatchesContract(t *testing.T) {
	g := gen.Type1(gen.MRNGLike(8, 8, 8, 3), 2, 7)
	match := refMatch(g, rng.New(3), Options{})
	want, cmap := refContract(g, match)
	nc := want.NumVertices()
	for _, w := range kernelWorkerCounts {
		s := newScratch(w)
		head, members := clusterMembers(cmap, nc, s)
		if err := graphsEqual(contract(g, cmap, nc, head, members, s, newLevel(g)), want); err != nil {
			t.Errorf("workers=%d: %v", w, err)
		}
		s.close()
	}
	if err := graphsEqual(ContractMap(g, cmap, nc), want); err != nil {
		t.Errorf("ContractMap: %v", err)
	}
	got, gotCmap := Contract(g, match)
	if err := graphsEqual(got, want); err != nil {
		t.Errorf("Contract: %v", err)
	}
	if err := sliceEq("cmap", gotCmap, cmap); err != nil {
		t.Errorf("Contract: %v", err)
	}
}

// TestBuildHierarchyCluster runs the full cluster-scheme hierarchy on a
// power-law graph and checks every level boundary: valid graphs, exact
// contraction conservation, and monotone shrinkage to the target.
func TestBuildHierarchyCluster(t *testing.T) {
	g := gen.Type1(gen.PowerLaw(6000, 8, 2.5, 13), 2, 5)
	levels, _ := BuildHierarchy(g, 100, rng.New(1), Options{Scheme: SchemeCluster})
	if len(levels) < 2 {
		t.Fatal("no coarsening happened")
	}
	for lvl := 1; lvl < len(levels); lvl++ {
		fine, coarse, cmap := levels[lvl-1].Graph, levels[lvl].Graph, levels[lvl].CMap
		if err := coarse.Validate(); err != nil {
			t.Fatalf("level %d: invalid graph: %v", lvl, err)
		}
		if err := check.VerifyCoarsening(fine, coarse, cmap); err != nil {
			t.Fatalf("level %d: %v", lvl, err)
		}
	}
	coarsest := levels[len(levels)-1].Graph.NumVertices()
	if coarsest > 6000/4 {
		t.Errorf("cluster coarsening barely shrank: coarsest n = %d", coarsest)
	}
}

// TestBuildHierarchyClusterDeterministic pins the scheme's end-to-end
// determinism: same graph, seed, and options give identical hierarchies.
func TestBuildHierarchyClusterDeterministic(t *testing.T) {
	g := gen.PowerLaw(4000, 8, 2.5, 21)
	a, _ := BuildHierarchy(g, 100, rng.New(9), Options{Scheme: SchemeCluster})
	b, _ := BuildHierarchy(g, 100, rng.New(9), Options{Scheme: SchemeCluster})
	if len(a) != len(b) {
		t.Fatalf("level counts differ: %d vs %d", len(a), len(b))
	}
	for lvl := 1; lvl < len(a); lvl++ {
		if a[lvl].Graph.NumVertices() != b[lvl].Graph.NumVertices() {
			t.Fatalf("level %d sizes differ", lvl)
		}
		for v := range a[lvl].CMap {
			if a[lvl].CMap[v] != b[lvl].CMap[v] {
				t.Fatalf("level %d cmap diverges at %d", lvl, v)
			}
		}
	}
}

// TestSchemeAuto pins the sniff: bounded-degree meshes resolve to
// matching, power-law graphs to cluster, and the explicit schemes are
// honored regardless of shape.
func TestSchemeAuto(t *testing.T) {
	mesh := gen.MRNGLike(10, 10, 10, 3)
	if DegreeSkewed(mesh) {
		t.Error("mesh classified as degree-skewed")
	}
	plaw := gen.PowerLaw(20000, 8, 2.5, 3)
	if !DegreeSkewed(plaw) {
		t.Error("power-law graph not classified as degree-skewed")
	}

	// Auto on a mesh must consume RNG exactly like explicit matching.
	a, _ := BuildHierarchy(mesh, 50, rng.New(4), Options{Scheme: SchemeAuto})
	b, _ := BuildHierarchy(mesh, 50, rng.New(4), Options{})
	if len(a) != len(b) {
		t.Fatalf("auto-on-mesh level count %d, matching %d", len(a), len(b))
	}
	for lvl := 1; lvl < len(a); lvl++ {
		for v := range a[lvl].CMap {
			if a[lvl].CMap[v] != b[lvl].CMap[v] {
				t.Fatalf("auto-on-mesh diverges from matching at level %d vertex %d", lvl, v)
			}
		}
	}
}

func TestParseScheme(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scheme
		ok   bool
	}{
		{"", SchemeMatching, true},
		{"matching", SchemeMatching, true},
		{"cluster", SchemeCluster, true},
		{"auto", SchemeAuto, true},
		{"hem", 0, false},
		{"CLUSTER", 0, false},
	} {
		got, err := ParseScheme(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseScheme(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseScheme(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, s := range []Scheme{SchemeMatching, SchemeCluster, SchemeAuto} {
		back, err := ParseScheme(s.String())
		if err != nil || back != s {
			t.Errorf("round-trip %v -> %q -> %v, %v", s, s.String(), back, err)
		}
	}
}
