package partition

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/coarsen"
	"repro/internal/gen"
	"repro/internal/initpart"
	"repro/internal/rng"
)

// rbSeedBaseline holds the RecursiveBisect allocation profile measured at
// the pre-arena seed (commit 9385e25, same meshes/seed/k as below, 10-call
// runtime.MemStats average). Committed as constants so BENCH_4.json can
// report the improvement ratio without checking out the old tree.
var rbSeedBaseline = map[string]struct {
	allocs uint64
	bytes  uint64
}{
	"mrng1t": {allocs: 672, bytes: 1579611},
	"mrng2t": {allocs: 704, bytes: 2892185},
	"mrng3t": {allocs: 710, bytes: 3017182},
}

// BenchmarkBench4 is the machine-readable harness for the hot-path
// performance PR: the BENCH_2 per-phase wall-time and cut columns, plus a
// RecursiveBisect allocation profile (allocs/op and bytes/op on each mesh's
// coarsest graph) next to the pre-arena seed baseline.
//
//	go test -bench=Bench4 -benchtime=1x .
//
// Wall times are machine-dependent; cuts and allocation counts are
// deterministic (fixed seed, sequential trials). Compare serial_init_ms
// against the committed BENCH_2.json for the init-phase speedup, and
// rb_allocs_per_op against rb_seed_allocs_per_op for the allocation
// reduction.
func BenchmarkBench4(b *testing.B) {
	type row struct {
		Mesh            string  `json:"mesh"`
		N               int     `json:"n"`
		Edges           int     `json:"edges"`
		K               int     `json:"k"`
		Seed            uint64  `json:"seed"`
		TrialWorkers    int     `json:"trial_workers"`
		SerialWallMS    float64 `json:"serial_wall_ms"`
		SerialCoarsenMS float64 `json:"serial_coarsen_ms"`
		SerialInitMS    float64 `json:"serial_init_ms"`
		SerialRefineMS  float64 `json:"serial_refine_ms"`
		SerialCut       int64   `json:"serial_cut"`
		P4WallMS        float64 `json:"p4_wall_ms"`
		P4CoarsenMS     float64 `json:"p4_coarsen_ms"`
		P4InitMS        float64 `json:"p4_init_ms"`
		P4RefineMS      float64 `json:"p4_refine_ms"`
		P4Cut           int64   `json:"p4_cut"`
		P4SimTimeS      float64 `json:"p4_simtime_s"`
		RBAllocsPerOp   uint64  `json:"rb_allocs_per_op"`
		RBBytesPerOp    uint64  `json:"rb_bytes_per_op"`
		RBSeedAllocs    uint64  `json:"rb_seed_allocs_per_op"`
		RBSeedBytes     uint64  `json:"rb_seed_bytes_per_op"`
		RBAllocsRatio   float64 `json:"rb_allocs_reduction_x"`
	}
	const (
		k    = 8
		seed = 1
	)
	meshes := []string{"mrng1t", "mrng2t", "mrng3t"}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, name := range meshes {
			spec, ok := gen.MeshByName(name)
			if !ok {
				b.Fatalf("unknown mesh %q", name)
			}
			g := spec.Build(seed*7919 + 7)
			ctx := context.Background()
			sTr := NewTracer("bench-serial")
			t0 := time.Now()
			sPart, _, err := SerialTraced(ctx, g, k, SerialOptions{Seed: seed, Tol: 0.05}, sTr)
			if err != nil {
				b.Fatal(err)
			}
			sWall := time.Since(t0)
			sPh := sTr.PhaseSeconds()
			pTr := NewTracer("bench-p4")
			t0 = time.Now()
			pPart, pStats, err := ParallelTraced(ctx, g, k, 4, ParallelOptions{Seed: seed, Tol: 0.05}, pTr)
			if err != nil {
				b.Fatal(err)
			}
			pWall := time.Since(t0)
			pPh := pTr.PhaseSeconds()

			// Allocation profile of the initial-partitioning hot path on
			// the same coarsest graph the serial pipeline partitions.
			levels, _ := coarsen.BuildHierarchy(g, 2000, rng.New(seed), coarsen.Options{BalancedEdge: true})
			coarsest := levels[len(levels)-1].Graph
			const iters = 10
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			for j := 0; j < iters; j++ {
				initpart.RecursiveBisect(coarsest, k, rng.New(seed),
					initpart.Options{Tol: 0.05, TrialWorkers: 1})
			}
			runtime.ReadMemStats(&m1)
			allocsPerOp := (m1.Mallocs - m0.Mallocs) / iters
			bytesPerOp := (m1.TotalAlloc - m0.TotalAlloc) / iters
			base := rbSeedBaseline[name]

			rows = append(rows, row{
				Mesh: name, N: g.NumVertices(), Edges: g.NumEdges(),
				K: k, Seed: seed, TrialWorkers: 1,
				SerialWallMS:    float64(sWall.Microseconds()) / 1000,
				SerialCoarsenMS: sPh["coarsen"] * 1000,
				SerialInitMS:    sPh["init"] * 1000,
				SerialRefineMS:  sPh["refine"] * 1000,
				SerialCut:       EdgeCut(g, sPart),
				P4WallMS:        float64(pWall.Microseconds()) / 1000,
				P4CoarsenMS:     pPh["coarsen"] * 1000,
				P4InitMS:        pPh["init"] * 1000,
				P4RefineMS:      pPh["refine"] * 1000,
				P4Cut:           EdgeCut(g, pPart),
				P4SimTimeS:      pStats.SimTime,
				RBAllocsPerOp:   allocsPerOp,
				RBBytesPerOp:    bytesPerOp,
				RBSeedAllocs:    base.allocs,
				RBSeedBytes:     base.bytes,
				RBAllocsRatio:   float64(base.allocs) / float64(allocsPerOp),
			})
		}
	}
	var serialMS, p4MS float64
	for _, r := range rows {
		serialMS += r.SerialWallMS
		p4MS += r.P4WallMS
	}
	b.ReportMetric(serialMS, "serial-ms")
	b.ReportMetric(p4MS, "p4-ms")

	out := struct {
		GeneratedBy string `json:"generated_by"`
		Rows        []row  `json:"rows"`
	}{
		GeneratedBy: "go test -bench=Bench4 -benchtime=1x .",
		Rows:        rows,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_4.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
