package main

import (
	"strings"

	partition "repro"
)

// benchTrack is the trace track of the benchmark's own spans
// (bench.setup, bench.partition, bench.verify); simulated ranks use
// tracks 0..p-1, so it never collides with one.
const benchTrack = 1 << 16

// serialLayers derives the per-layer metrics of one traced serial call:
// the span names are those serial.PartitionTraced and the coarsening,
// label-propagation and refinement packages record. Level counts are the
// last attempt's.
func serialLayers(ms metricSet, p *profile) {
	ms.set("coarsen.self_s", p.selfS("coarsen"))
	ms.set("coarsen.level.self_s", p.selfS("coarsen.level"))
	ms.set("coarsen.levels", p.attrLast("coarsen", "levels"))
	ms.set("coarsen.coarsest_n", p.attrLast("coarsen", "coarsest_n"))
	ms.set("lp.round.self_s", p.selfS("lp.round"))
	ms.set("lp.round.calls", p.calls("lp.round"))
	ms.set("lp.moves", p.attrSum("lp.round", "moves"))
	ms.set("lp.contract.self_s", p.selfS("lp.contract"))
	ms.set("initpart.self_s", p.selfS("init"))
	ms.set("initpart.cut", p.attrLast("init", "cut"))
	// Each attempt of the restart loop runs the whole pipeline, and every
	// pipeline opens exactly one top-level coarsen span.
	ms.set("serial.attempts", p.calls("coarsen"))
	ms.set("serial.project_s", p.selfS("refine"))
	ms.set("kwayrefine.level.self_s", p.selfS("refine.level"))
	ms.set("kwayrefine.pass.self_s", p.selfS("refine.pass"))
	ms.set("kwayrefine.pass.calls", p.calls("refine.pass"))
	moves := p.attrSum("refine.pass", "moves")
	bnd := p.attrSum("refine.pass", "boundary_n")
	ms.set("kwayrefine.moves", moves)
	ms.set("kwayrefine.boundary_n", bnd)
	ms.set("kwayrefine.gain_cache_updates", p.attrSum("refine.pass", "gain_cache_updates"))
	ms.set("kwayrefine.moves_per_boundary", ratio(moves, bnd))
	finest, coarse := refineNsPerEdge(p)
	ms.set("kwayrefine.finest_ns_per_edge", finest)
	ms.set("kwayrefine.coarse_ns_per_edge", coarse)
}

// refineNsPerEdge divides the wall time of the refine.level spans by the
// edge count of the level each refines, separately for the finest level
// and for all coarser ones. A coarsen.level span carries the edge counts
// of its input level (level-1, on the opening event) and of the level it
// builds (level, on the closing event); spans are visited in start order,
// so each refinement pairs with the most recent hierarchy, which is its
// own attempt's under the restart loop.
func refineNsPerEdge(p *profile) (finest, coarse float64) {
	edges := make(map[int]float64)
	var finestUS, finestEdges, coarseUS, coarseEdges float64
	for _, s := range p.spans {
		lvl := int(s.attrs["level"])
		switch s.name {
		case "coarsen.level":
			edges[lvl-1] = s.attrs["edges"]
			edges[lvl] = s.attrs["coarse_edges"]
		case "refine.level":
			if lvl == 0 {
				finestUS += s.dur()
				finestEdges += edges[0]
			} else {
				coarseUS += s.dur()
				coarseEdges += edges[lvl]
			}
		}
	}
	return ratio(finestUS*1e3, finestEdges), ratio(coarseUS*1e3, coarseEdges)
}

// parallelLayers derives the per-layer metrics of one traced parallel
// call. Span self times are the slowest rank's; prefine reports moves
// globally (allreduced) on every rank and boundary counts rank-locally.
func parallelLayers(ms metricSet, p *profile, st partition.ParallelStats) {
	ms.set("parallel.distribute_s", p.selfS("distribute"))
	ms.set("parallel.sim_time_s", st.SimTime)
	ms.set("pcoarsen.level.self_s", p.selfS("coarsen.level"))
	ms.set("coarsen.levels", float64(st.Levels))
	ms.set("coarsen.coarsest_n", float64(st.CoarsestN))
	ms.set("pinit.self_s", p.selfS("init"))
	ms.set("initpart.cut", float64(st.InitCut))
	ms.set("prefine.pass.self_s", p.selfS("refine.pass"))
	ms.set("prefine.pass.calls", p.calls("refine.pass"))
	ms.set("prefine.moves", p.attrMax("refine.pass", "moves"))
	ms.set("prefine.boundary_n", p.attrSum("refine.pass", "boundary_n"))
	ms.set("mpi.calls", p.counterSum("mpi.", "calls"))
	ms.set("mpi.bytes", p.counterSum("mpi.", "bytes"))
	ms.set("mpi.wait_s", p.counterSum("mpi.", "wait_s"))
	ms.set("parallel.rank_skew", rankSkew(p, st.SimTime))
}

// rankSkew is the slowest rank's simulated busy time over the mean: each
// rank's clock ends at the run's simulated time, so its busy time is that
// minus the simulated time it waited in collectives (the last mpi.*
// counter samples). 1 means perfectly balanced work.
func rankSkew(p *profile, simTime float64) float64 {
	if len(p.counters) == 0 {
		return 0
	}
	var sum, max float64
	for _, byName := range p.counters {
		wait := 0.0
		for name, s := range byName {
			if strings.HasPrefix(name, "mpi.") {
				wait += s["wait_s"]
			}
		}
		busy := simTime - wait
		sum += busy
		if busy > max {
			max = busy
		}
	}
	return ratio(max, sum/float64(len(p.counters)))
}
