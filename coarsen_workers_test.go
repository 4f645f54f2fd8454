package partition

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// The parallel-coarsening worker-invariance property (DESIGN.md, "Parallel
// coarsening contract"): CoarsenWorkers is a wall-clock knob, never a
// result knob. For every worker count the matching and contraction
// kernels, and the cluster scheme's one-goroutine label propagation beside
// them, must produce bit-identical hierarchies — and therefore
// bit-identical partitions, cuts, and stats — because the matching's
// propose/commit discipline replays the sequential decision order exactly.
// These tests pin that property across both coarsening schemes and both
// graph classes (mesh and power-law), with the worker counts spanning
// sequential (0, 1), the parallel path (2, 4), and more workers than the
// propose chunks strictly need (8). CI additionally runs this file under
// -race: the propose phases are the only concurrent code, so a data race
// in any kernel surfaces here.

func labelBytes(t *testing.T, part []int32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, part); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var workerCounts = []int{0, 1, 2, 4, 8}

func testWorkerInvariance(t *testing.T, g *Graph, k int, opt SerialOptions) {
	t.Helper()
	var refBytes []byte
	var refStats SerialStats
	for _, w := range workerCounts {
		o := opt
		o.CoarsenWorkers = w
		part, stats, err := Serial(g, k, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if w == 0 {
			refBytes, refStats = labelBytes(t, part), stats
			continue
		}
		if !bytes.Equal(labelBytes(t, part), refBytes) {
			t.Errorf("workers=%d: labels differ from sequential", w)
		}
		if stats.EdgeCut != refStats.EdgeCut || stats.Levels != refStats.Levels || stats.CoarsestN != refStats.CoarsestN {
			t.Errorf("workers=%d: stats (cut=%d levels=%d coarsest=%d) differ from sequential (cut=%d levels=%d coarsest=%d)",
				w, stats.EdgeCut, stats.Levels, stats.CoarsestN,
				refStats.EdgeCut, refStats.Levels, refStats.CoarsestN)
		}
	}
}

// TestCoarsenWorkersInvariantMesh covers the matching kernels on the mesh
// tier: single-constraint (the m==1 propose fast path) and two-constraint
// Type 1 workloads (the generic jaggedness tie-break path). The 24^3 mesh
// leaves several levels above the parallel threshold.
func TestCoarsenWorkersInvariantMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed multilevel runs; skipped with -short")
	}
	base := Mesh3D(24, 24, 24, 5)
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"m1", base},
		{"m2-type1", Type1Workload(base, 2, 101)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testWorkerInvariance(t, tc.g, 8, SerialOptions{Seed: 1})
		})
	}
}

// TestCoarsenWorkersInvariantPowerLaw covers the cluster scheme (label
// propagation and the cluster-map contraction) on its motivating graph
// class, plus the auto scheme sniffing its way to clustering on the same
// graph.
func TestCoarsenWorkersInvariantPowerLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed multilevel runs; skipped with -short")
	}
	g := plawMC(PowerLawGraph(20000, 8, 2.5, 77), 2, 123)
	for _, scheme := range []CoarsenScheme{CoarsenCluster, CoarsenAuto} {
		t.Run(fmt.Sprint(scheme), func(t *testing.T) {
			testWorkerInvariance(t, g, 8, SerialOptions{Seed: 3, CoarsenScheme: scheme})
		})
	}
}

// TestCoarsenWorkersInvariantMatchingPowerLaw pins the matching kernels on
// a skewed degree distribution too: hub adjacency lists make the propose
// ranges maximally unbalanced, the stress case for commit-time rescans.
func TestCoarsenWorkersInvariantMatchingPowerLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed multilevel runs; skipped with -short")
	}
	g := PowerLawGraph(20000, 8, 2.5, 42)
	testWorkerInvariance(t, g, 8, SerialOptions{Seed: 7})
}
