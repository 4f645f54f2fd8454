// Package partition is a from-scratch Go implementation of multilevel
// multi-constraint graph partitioning: the serial algorithm of Karypis &
// Kumar, "Multilevel Algorithms for Multi-Constraint Graph Partitioning"
// (SC 1998), and its parallel formulation from Schloegel, Karypis & Kumar,
// "Parallel Multilevel Algorithms for Multi-constraint Graph Partitioning"
// (Euro-Par 2000), with the paper's MPI/Cray-T3E substrate re-designed
// around goroutines (see DESIGN.md).
//
// A multi-constraint partitioning splits a graph whose vertices carry
// m-component weight vectors into k subdomains such that the total weight
// of cut edges is minimized while *each of the m weight components* is
// balanced across the subdomains — the requirement of multi-phase
// scientific simulations, where every computational phase must be
// individually load balanced.
//
// Quick start:
//
//	g := partition.Grid3D(20, 20, 20)          // a small mesh
//	g = partition.Type1Workload(g, 3, 42)      // 3 balance constraints
//	part, stats, err := partition.Serial(g, 8, partition.SerialOptions{Seed: 1})
//	// part[v] ∈ [0,8); stats.EdgeCut, stats.Imbalance
//
// and in parallel on 16 simulated processors:
//
//	part, pstats, err := partition.Parallel(g, 8, 16, partition.ParallelOptions{Seed: 1})
package partition

import (
	"context"
	"io"

	"repro/internal/coarsen"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/prefine"
	"repro/internal/rcb"
	"repro/internal/repart"
	"repro/internal/serial"
	"repro/internal/trace"
)

// Graph is an undirected multi-constraint weighted graph in CSR form; see
// the field documentation on the underlying type. Construct one with
// NewBuilder, a generator, or ReadGraph.
type Graph = graph.Graph

// Builder accumulates edges and vertex weights and produces a validated
// Graph.
type Builder = graph.Builder

// NewBuilder creates a Builder for a graph with n vertices and ncon
// balance constraints (all vertex weights default to 1).
func NewBuilder(n, ncon int) *Builder { return graph.NewBuilder(n, ncon) }

// ReadGraph parses a graph in the METIS 4.0 file format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadMETIS(r) }

// WriteGraph writes a graph in the METIS 4.0 file format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteMETIS(w, g) }

// SerialOptions configures the serial (SC'98) partitioner.
type SerialOptions = serial.Options

// CoarsenScheme selects how coarsening groups vertices: heavy-edge
// matching (the paper default), size-constrained label-propagation
// clustering (for power-law/social-network degree distributions), or
// automatic selection by degree skew. Set it via
// SerialOptions.CoarsenScheme.
type CoarsenScheme = coarsen.Scheme

// The coarsening schemes. CoarsenMatching is the zero value, so existing
// code keeps the paper behaviour bit-identically.
const (
	CoarsenMatching = coarsen.SchemeMatching
	CoarsenCluster  = coarsen.SchemeCluster
	CoarsenAuto     = coarsen.SchemeAuto
)

// ParseCoarsenScheme parses "matching", "cluster", or "auto" (the empty
// string means the matching default) — the spelling used by the mcpart
// -coarsen flag and the mcpartd "coarsen" request parameter.
func ParseCoarsenScheme(s string) (CoarsenScheme, error) { return coarsen.ParseScheme(s) }

// SerialStats reports what the serial partitioner did.
type SerialStats = serial.Stats

// Serial computes a k-way multi-constraint partitioning with the serial
// multilevel algorithm (the MeTiS baseline of the paper's figures). The
// returned slice assigns each vertex a subdomain in [0, k).
func Serial(g *Graph, k int, opt SerialOptions) ([]int32, SerialStats, error) {
	return serial.Partition(g, k, opt)
}

// SerialContext is Serial with cooperative cancellation: the pipeline
// checks ctx at every level boundary and refinement pass, so a cancelled
// or expired context aborts the run promptly with an error wrapping
// ctx.Err(). See DESIGN.md, "Cancellation contract".
func SerialContext(ctx context.Context, g *Graph, k int, opt SerialOptions) ([]int32, SerialStats, error) {
	return serial.PartitionCtx(ctx, g, k, opt)
}

// Tracer records nested spans and per-rank MPI communication counters for
// one partitioning run and exports them as Chrome trace-event JSON (open
// the file at https://ui.perfetto.dev). Pass one to SerialTraced or
// ParallelTraced; a nil *Tracer disables all recording at zero cost. A
// Tracer is single-run: make a fresh one per traced call. See DESIGN.md,
// "Observability".
type Tracer = trace.Tracer

// NewTracer creates an empty Tracer; name becomes the process name in the
// exported trace.
func NewTracer(name string) *Tracer { return trace.New(name) }

// SerialTraced is SerialContext with span tracing: the run records one
// track (rank 0) of phase, per-level and per-pass spans onto tr. Tracing
// is observation-only — partitions, stats and RNG decisions are
// bit-identical to an untraced run — and tr == nil makes this exactly
// SerialContext.
func SerialTraced(ctx context.Context, g *Graph, k int, opt SerialOptions, tr *Tracer) ([]int32, SerialStats, error) {
	return serial.PartitionTraced(ctx, g, k, opt, tr)
}

// ParallelOptions configures the parallel partitioner.
type ParallelOptions = parallel.Options

// ParallelStats reports what the parallel partitioner did, including the
// simulated Cray-T3E-style run time (SimTime).
type ParallelStats = parallel.Stats

// Scheme selects the concurrent-refinement balance-protection scheme.
type Scheme = prefine.Scheme

// Refinement schemes: Reservation is the paper's contribution; Slice,
// SliceSmart and Free are the rejected designs, kept for ablation
// experiments.
const (
	Reservation = prefine.Reservation
	Slice       = prefine.Slice
	SliceSmart  = prefine.SliceSmart
	Free        = prefine.Free
)

// CostModel parameterizes the simulated communication clock.
type CostModel = mpi.CostModel

// T3EModel returns the default Cray T3E-like cost model.
func T3EModel() CostModel { return mpi.T3E() }

// Parallel computes a k-way multi-constraint partitioning on p simulated
// processors (goroutines) using the Euro-Par 2000 parallel formulation:
// coarse-grain parallel matching, parallel contraction, initial
// partitioning by one recursive bisection on rank groups with a best-of-p
// refinement vote, and reservation-based parallel multi-constraint
// refinement.
func Parallel(g *Graph, k, p int, opt ParallelOptions) ([]int32, ParallelStats, error) {
	return parallel.Partition(g, k, p, opt)
}

// ParallelContext is Parallel with cooperative cancellation: the p
// simulated ranks vote collectively on the context's state at level
// boundaries and refinement passes and unwind together on cancellation,
// so the goroutine world is always torn down cleanly (no poisoned
// barriers, no leaked ranks). The error wraps ctx.Err(). See DESIGN.md,
// "Cancellation contract".
func ParallelContext(ctx context.Context, g *Graph, k, p int, opt ParallelOptions) ([]int32, ParallelStats, error) {
	return parallel.PartitionCtx(ctx, g, k, p, opt)
}

// ParallelTraced is ParallelContext with span tracing: each of the p
// simulated ranks records its own track of phase, per-level and per-pass
// spans plus cumulative per-collective communication counters (calls,
// bytes, simulated wait seconds) onto tr. Tracing is observation-only —
// partitions, stats and the simulated clock are bit-identical to an
// untraced run — and tr == nil makes this exactly ParallelContext.
func ParallelTraced(ctx context.Context, g *Graph, k, p int, opt ParallelOptions, tr *Tracer) ([]int32, ParallelStats, error) {
	return parallel.PartitionTraced(ctx, g, k, p, opt, tr)
}

// EdgeCut returns the total weight of edges cut by the partitioning.
func EdgeCut(g *Graph, part []int32) int64 { return metrics.EdgeCut(g, part) }

// Imbalances returns, per constraint, the maximum subdomain weight divided
// by the average subdomain weight.
func Imbalances(g *Graph, part []int32, k int) []float64 { return metrics.Imbalances(g, part, k) }

// MaxImbalance returns the worst imbalance over all constraints.
func MaxImbalance(g *Graph, part []int32, k int) float64 { return metrics.MaxImbalance(g, part, k) }

// CommVolume returns the total communication volume of the partitioning.
func CommVolume(g *Graph, part []int32, k int) int64 { return metrics.CommVolume(g, part, k) }

// Grid2D returns a w×h grid graph with unit weights (one constraint).
func Grid2D(w, h int) *Graph { return gen.Grid2D(w, h) }

// Grid3D returns an nx×ny×nz grid graph with unit weights (one constraint).
func Grid3D(nx, ny, nz int) *Graph { return gen.Grid3D(nx, ny, nz) }

// Mesh3D returns an irregular 3D mesh-like graph (the mrng stand-in used
// throughout the experiments).
func Mesh3D(nx, ny, nz int, seed uint64) *Graph { return gen.MRNGLike(nx, ny, nz, seed) }

// PowerLawGraph returns a social-network-like random graph: a Chung-Lu
// model whose expected degrees follow a power law with the given exponent
// (want > 2; classic value 2.5), normalized to the requested average
// degree. Deterministic in the seed. This is the degree-skewed workload
// class for which CoarsenCluster exists; overlay Type1Workload or
// Type2Workload for multi-constraint problems.
func PowerLawGraph(n int, avgDeg, exponent float64, seed uint64) *Graph {
	return gen.PowerLaw(n, avgDeg, exponent, seed)
}

// Type1Workload overlays the paper's Type 1 multi-constraint problem on a
// graph: 16 contiguous regions, each with one random m-component weight
// vector (entries 0..19) shared by all its vertices.
func Type1Workload(g *Graph, m int, seed uint64) *Graph { return gen.Type1(g, m, seed) }

// Type2Workload overlays the paper's Type 2 multi-phase problem: 32
// contiguous regions, phase i active on 100/75/50/50/25% of them, vertex
// weights are 0/1 activity indicators and edge weights count co-active
// phases.
func Type2Workload(g *Graph, m int, seed uint64) *Graph { return gen.Type2(g, m, seed) }

// Regions splits a graph into r contiguous regions (graph Voronoi) and
// returns a region label per vertex; useful for building custom
// multi-phase workloads. Seeds are spread by farthest-point sampling, and
// every vertex takes its nearest seed's label, the lowest index on a tie.
// A call costs about n·H(r) vertex visits (H the harmonic number), one
// BFS per seed pruned to the cell that seed takes over.
func Regions(g *Graph, r int, seed uint64) []int32 { return gen.Regions(g, r, seed) }

// RepartitionMethod selects the adaptive-repartitioning strategy.
type RepartitionMethod = repart.Method

// Repartitioning methods: AutoRepartition picks between the two by the
// observed imbalance.
const (
	AutoRepartition = repart.Auto
	Diffusion       = repart.Diffusion
	ScratchRemap    = repart.ScratchRemap
)

// RepartitionOptions configures adaptive repartitioning.
type RepartitionOptions = repart.Options

// RepartitionStats reports edge-cut, balance and migration volume.
type RepartitionStats = repart.Stats

// Repartition adapts an existing k-way partitioning to changed vertex
// weights (mesh adaptation, phase drift), balancing edge-cut quality
// against vertex-migration cost — the adaptive-computation use case the
// paper's introduction motivates parallel partitioning with.
func Repartition(g *Graph, part []int32, k int, opt RepartitionOptions) ([]int32, RepartitionStats, error) {
	return repart.Repartition(g, part, k, opt)
}

// ParallelRepartitionStats extends RepartitionStats with simulated time.
type ParallelRepartitionStats = parallel.RepartitionStats

// ParallelRepartition adapts an existing partitioning to changed weights
// on p simulated processors: parallel diffusion first, escalating to a
// full parallel partitioning with overlap-maximizing relabeling — the
// dynamic repartitioning of the paper's companion journal version.
func ParallelRepartition(g *Graph, part []int32, k, p int, opt ParallelOptions) ([]int32, ParallelRepartitionStats, error) {
	return parallel.Repartition(g, part, k, p, opt)
}

// Mesh is a finite-element mesh (tri/quad/tet/hex elements); convert it to
// a partitionable graph with its DualGraph or NodalGraph methods.
type Mesh = mesh.Mesh

// Mesh generators for the supported element types, on structured grids of
// the unit square/cube with coordinates.
var (
	StructuredTri  = mesh.StructuredTri
	StructuredQuad = mesh.StructuredQuad
	StructuredTet  = mesh.StructuredTet
	StructuredHex  = mesh.StructuredHex
)

// RCB partitions points (3 coords each, e.g. Mesh.ElementCentroids) by
// recursive coordinate bisection — the geometric baseline. Pass g to
// weight the median splits by combined vertex weight, or nil for unit
// weights. RCB balances only the combined weight: the multi-constraint
// balance that Serial/Parallel guarantee is exactly what it lacks.
func RCB(coords []float64, g *Graph, k int) ([]int32, error) {
	return rcb.Partition(coords, g, k)
}
