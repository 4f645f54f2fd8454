// Command mcpart partitions a graph with the multilevel multi-constraint
// algorithms: serially (the SC'98 algorithm) or on p simulated processors
// (the Euro-Par 2000 parallel formulation).
//
// Usage:
//
//	mcpart -graph mesh.graph -k 16                 # serial, file input
//	graphgen -kind powerlaw -n 100000 | mcpart -graph - -k 16
//	mcpart -mesh mrng2s -workload type1 -m 3 -k 32 -p 32
//	mcpart -graph mesh.graph -k 8 -out labels.txt
//	mcpart -mesh mrng1t -workload type1 -m 2 -k 8 -p 4 -trace out.json
//	mcpart -graph drifted.graph -k 8 -repart-from labels.txt
//	mcpart -graph social.graph -k 16 -coarsen cluster       # power-law input
//
// -coarsen selects the coarsening scheme (serial only): matching is the
// SC'98 heavy-edge matching default, cluster is size-constrained label
// propagation for power-law/social-network degree distributions, and auto
// sniffs the input's degree skew and picks for you.
//
// The input file is in the METIS 4.0 format (see internal/graph); "-"
// reads it from stdin. Either way the body streams through a chunked
// reader straight into the CSR builder — the same discipline as the
// daemon's /v1/partition/stream — so a 7.5M-vertex graph is never
// buffered whole alongside its parsed form. With
// -mesh, a synthetic mrng-like mesh is generated instead and -workload
// overlays a Type 1 or Type 2 multi-constraint problem on it. With
// -trace, the run records a span trace (one track per simulated rank,
// with per-collective communication counters) and writes it as Chrome
// trace-event JSON, viewable at https://ui.perfetto.dev.
//
// With -repart-from, mcpart adapts an existing partitioning (one label
// per line, the -out format of a previous run) to the input graph's
// current weights instead of partitioning from scratch, and prints the
// migration volume — moved vertices and per-constraint moved weight —
// next to the cut and balance. -repart-method picks the strategy: auto
// (default) chooses diffusion for mild imbalance and scratch-remap for
// severe, or force either one explicitly.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	partition "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

// exitDeadline is the exit status when -timeout fires: distinct from 1
// (input/algorithm error) and 2 (bad flags) so scripts can tell "graph too
// hard for the budget" from "request was wrong".
const exitDeadline = 3

func main() {
	var (
		graphFile = flag.String("graph", "", "input graph file (METIS format); \"-\" reads stdin")
		mesh      = flag.String("mesh", "", "generate a named mesh instead (mrng1..mrng4, mrng1s.., mrng1t..)")
		workload  = flag.String("workload", "", "overlay workload: type1|type2 (requires -mesh or -graph)")
		m         = flag.Int("m", 1, "number of constraints for -workload")
		k         = flag.Int("k", 8, "number of subdomains")
		p         = flag.Int("p", 0, "simulated processors; 0 = serial algorithm")
		seed      = flag.Uint64("seed", 1, "random seed")
		tol       = flag.Float64("tol", 0.05, "load imbalance tolerance")
		scheme    = flag.String("scheme", "reservation", "parallel refinement scheme: reservation|slice|free")
		coarsen   = flag.String("coarsen", "matching", "coarsening scheme: matching|cluster|auto (serial only; cluster suits power-law graphs)")
		coarsenW  = flag.Int("coarsen-workers", 0, "goroutines for the serial pipeline's coarsening kernels; any value yields identical output")
		outFile   = flag.String("out", "", "write one subdomain label per line to this file")
		timeout   = flag.Duration("timeout", 0, "abort partitioning after this long (0 = no limit); exits with status 3")
		traceFile = flag.String("trace", "", "write a Chrome trace-event JSON trace of the run to this file (open in Perfetto)")

		repartFrom   = flag.String("repart-from", "", "adapt the partitioning in this labels file (the -out format) to the graph's current weights instead of partitioning from scratch")
		repartMethod = flag.String("repart-method", "auto", "repartitioning strategy with -repart-from: auto|diffusion|scratch-remap")
	)
	flag.Parse()

	coarsenScheme, err := partition.ParseCoarsenScheme(*coarsen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcpart:", err)
		os.Exit(2)
	}
	if coarsenScheme != partition.CoarsenMatching && (*p > 0 || *repartFrom != "") {
		fmt.Fprintf(os.Stderr, "mcpart: -coarsen %s is serial-only (matching is the parallel and repartitioning scheme)\n", *coarsen)
		os.Exit(2)
	}
	if *coarsenW > 1 && (*p > 0 || *repartFrom != "") {
		fmt.Fprintln(os.Stderr, "mcpart: -coarsen-workers is serial-only (the simulated-parallel and repartitioning pipelines have their own coarseners)")
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	g, err := loadGraph(*graphFile, *mesh, *workload, *m, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcpart:", err)
		os.Exit(1)
	}
	fmt.Printf("graph: %d vertices, %d edges, %d constraint(s)\n", g.NumVertices(), g.NumEdges(), g.Ncon)

	var tracer *partition.Tracer
	if *traceFile != "" {
		tracer = partition.NewTracer("mcpart")
	}
	// Write whatever was recorded even when the run errors or times out: a
	// trace of an aborted run is exactly what one wants to look at.
	writeTrace := func() {
		if tracer == nil {
			return
		}
		f, ferr := os.Create(*traceFile)
		if ferr == nil {
			bw := bufio.NewWriter(f)
			ferr = tracer.Export(bw)
			if ferr == nil {
				ferr = bw.Flush()
			}
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "mcpart: writing trace:", ferr)
			return
		}
		fmt.Printf("wrote trace to %s", *traceFile)
		if ph := tracer.PhaseSeconds(); len(ph) > 0 {
			fmt.Print(" (")
			printed := 0
			for _, name := range []string{"distribute", "coarsen", "init", "refine"} {
				if sec, ok := ph[name]; ok {
					if printed > 0 {
						fmt.Print(" ")
					}
					fmt.Printf("%s %.1fms", name, sec*1e3)
					printed++
				}
			}
			fmt.Print(")")
		}
		fmt.Println()
	}

	var part []int32
	switch {
	case *repartFrom != "":
		oldPart, lerr := readLabels(*repartFrom, g.NumVertices())
		if lerr != nil {
			fmt.Fprintln(os.Stderr, "mcpart:", lerr)
			os.Exit(1)
		}
		var method partition.RepartitionMethod
		switch *repartMethod {
		case "auto":
			method = partition.AutoRepartition
		case "diffusion":
			method = partition.Diffusion
		case "scratch-remap":
			method = partition.ScratchRemap
		default:
			fmt.Fprintf(os.Stderr, "mcpart: unknown repart-method %q (want auto, diffusion or scratch-remap)\n", *repartMethod)
			os.Exit(2)
		}
		if *p == 0 {
			opt := partition.RepartitionOptions{Seed: *seed, Tol: *tol, Method: method}
			if tracer != nil {
				opt.Trace = tracer.Rank(0)
			}
			var stats partition.RepartitionStats
			part, stats, err = partition.Repartition(g, oldPart, *k, opt)
			if err == nil {
				printMigration("repart", stats)
			}
		} else {
			if *repartMethod != "auto" {
				fmt.Fprintln(os.Stderr, "mcpart: -repart-method is serial-only; parallel repartitioning (-p > 0) picks its own strategy")
				os.Exit(2)
			}
			var stats partition.ParallelRepartitionStats
			part, stats, err = partition.ParallelRepartition(g, oldPart, *k, *p, partition.ParallelOptions{
				Seed: *seed, Tol: *tol, Scheme: parseSchemeFlag(*scheme),
			})
			if err == nil {
				printMigration(fmt.Sprintf("repart p=%d simTime=%.3fs", *p, stats.SimTime), stats.Stats)
			}
		}
	case *p == 0:
		var stats partition.SerialStats
		part, stats, err = partition.SerialTraced(ctx, g, *k, partition.SerialOptions{Seed: *seed, Tol: *tol, CoarsenScheme: coarsenScheme, CoarsenWorkers: *coarsenW}, tracer)
		if err == nil {
			fmt.Printf("serial: cut=%d imbalance=%.4f levels=%d coarsest=%d (coarsen %v, init %v, uncoarsen %v)\n",
				stats.EdgeCut, stats.Imbalance, stats.Levels, stats.CoarsestN,
				stats.CoarsenTime, stats.InitTime, stats.UncoarsenTime)
			fmt.Printf("hierarchy plan: peak %.1f MB retained of %.1f MB budget\n",
				float64(stats.HierPeakBytes)/(1<<20), float64(stats.HierBudgetBytes)/(1<<20))
		}
	default:
		var stats partition.ParallelStats
		part, stats, err = partition.ParallelTraced(ctx, g, *k, *p, partition.ParallelOptions{
			Seed: *seed, Tol: *tol, Scheme: parseSchemeFlag(*scheme),
		}, tracer)
		if err == nil {
			fmt.Printf("parallel p=%d: cut=%d imbalance=%.4f levels=%d simTime=%.3fs wall=%v moves=%d\n",
				*p, stats.EdgeCut, stats.Imbalance, stats.Levels, stats.SimTime, stats.WallTime, stats.Moves)
		}
	}
	writeTrace()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcpart:", err)
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "mcpart: -timeout %v exceeded\n", *timeout)
			os.Exit(exitDeadline)
		}
		os.Exit(1)
	}

	imbs := partition.Imbalances(g, part, *k)
	fmt.Print("per-constraint imbalance:")
	for _, x := range imbs {
		fmt.Printf(" %.4f", x)
	}
	fmt.Printf("\ncommunication volume: %d\n", partition.CommVolume(g, part, *k))

	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcpart:", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		for _, x := range part {
			fmt.Fprintln(bw, x)
		}
		if err := bw.Flush(); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcpart:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d labels to %s\n", len(part), *outFile)
	}
}

// parseSchemeFlag maps the -scheme flag; unknown names exit with status 2
// like any other bad flag.
func parseSchemeFlag(name string) partition.Scheme {
	switch name {
	case "reservation":
		return partition.Reservation
	case "slice":
		return partition.Slice
	case "free":
		return partition.Free
	}
	fmt.Fprintf(os.Stderr, "mcpart: unknown scheme %q\n", name)
	os.Exit(2)
	return 0
}

// printMigration reports a repartitioning outcome: the cut and balance a
// from-scratch run would print, plus the migration bill.
func printMigration(prefix string, stats partition.RepartitionStats) {
	fmt.Printf("%s method=%s: cut=%d imbalance=%.4f moved=%d (%.1f%% of vertices) moved-weight=[",
		prefix, stats.Method, stats.EdgeCut, stats.Imbalance,
		stats.MovedVertices, 100*stats.MovedFraction)
	for i, w := range stats.MovedWeight {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Print(w)
	}
	fmt.Println("]")
}

// readLabels reads a labels file in the -out format: one subdomain label
// per line, n lines.
func readLabels(file string, n int) ([]int32, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	part := make([]int32, 0, n)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		x, err := strconv.ParseInt(line, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%s: line %d: %v", file, len(part)+1, err)
		}
		part = append(part, int32(x))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", file, err)
	}
	if len(part) != n {
		return nil, fmt.Errorf("%s has %d labels, graph has %d vertices", file, len(part), n)
	}
	return part, nil
}

func loadGraph(file, mesh, workload string, m int, seed uint64) (*partition.Graph, error) {
	var g *partition.Graph
	switch {
	case file != "":
		var r io.Reader
		if file == "-" {
			r = os.Stdin
		} else {
			f, err := os.Open(file)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r = f
		}
		// Stream the body in bounded chunks (no total cap: the CLI trusts
		// its operator; the int32 CSR guards still bound the parse) so the
		// transport never holds the whole file alongside the CSR arrays.
		var err error
		g, err = partition.ReadGraph(bufio.NewReader(graph.NewChunkedReader(r, graph.DefaultChunkSize, 0)))
		if err != nil {
			return nil, err
		}
	case mesh != "":
		spec, ok := gen.MeshByName(mesh)
		if !ok {
			return nil, fmt.Errorf("unknown mesh %q", mesh)
		}
		g = spec.Build(seed*7919 + 7)
	default:
		return nil, fmt.Errorf("need -graph or -mesh")
	}
	switch workload {
	case "":
		return g, nil
	case "type1":
		return partition.Type1Workload(g, m, seed+100), nil
	case "type2":
		return partition.Type2Workload(g, m, seed+100), nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}
