package pcoarsen

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/pgraph"
	"repro/internal/rng"
	"repro/internal/vecw"
)

// referenceMatch is Match with the candidate scan it had before the mate
// rule moved to coarsen.MateRule, kept as the oracle: its own heaviest-edge
// loop, cap test and vecw.Jaggedness tie-break, ghost weights in an array
// of their own, and ghost match flags refreshed after every round.
// Arbitration is shared. Collective, like Match.
func referenceMatch(dg *pgraph.DGraph, rand *rng.RNG, opt Options) ([]int32, MatchStats) {
	if opt.Rounds <= 0 {
		opt.Rounds = 4
	}
	nlocal, m := dg.NLocal(), dg.Ncon
	first := dg.First()
	st := &matchState{dg: dg, match: make([]int32, nlocal), pending: make([]int32, nlocal)}
	for i := range st.match {
		st.match[i], st.pending[i] = -1, -1
	}
	ghostMatch := make([]int32, dg.NGhost()) // 1 if matched as of the last refresh
	ghostVwgt := make([]int32, dg.NGhost()*m)
	dg.ExchangeGhostsVecI32(dg.Vwgt, m, ghostVwgt)
	combined := make([]int64, m)
	jag := func(a, b []int32) float64 {
		for i := range a {
			combined[i] = int64(a[i]) + int64(b[i])
		}
		return vecw.Jaggedness(combined)
	}
	fits := func(a, b []int32) bool {
		for i := range a {
			if int64(a[i])+int64(b[i]) > opt.MaxVertexWeight {
				return false
			}
		}
		return true
	}

	order := make([]int32, nlocal)
	matchedFlag := make([]int32, nlocal)
	for round := 0; round < opt.Rounds; round++ {
		rand.Perm(order)
		props := make([][]int32, dg.Comm.Size())
		work := 0
		for _, v := range order {
			if st.match[v] >= 0 || st.pending[v] >= 0 {
				continue
			}
			start, end := dg.Xadj[v], dg.Xadj[v+1]
			work += int(end - start)
			vw := dg.LocalVertexWeight(v)
			best, bestW, bestJag := int32(-1), int32(-1), 0.0
			for e := start; e < end; e++ {
				u := dg.Adjncy[e]
				var uw []int32
				if int(u) < nlocal {
					if st.match[u] >= 0 || st.pending[u] >= 0 || u == v {
						continue
					}
					uw = dg.LocalVertexWeight(u)
				} else {
					slot := int(u) - nlocal
					if ghostMatch[slot] == 1 {
						continue
					}
					uw = ghostVwgt[slot*m : (slot+1)*m]
				}
				if opt.MaxVertexWeight > 0 && !fits(vw, uw) {
					continue
				}
				w := dg.Adjwgt[e]
				switch {
				case w > bestW:
					best, bestW = u, w
					if opt.BalancedEdge {
						bestJag = jag(vw, uw)
					}
				case w == bestW && opt.BalancedEdge:
					if j := jag(vw, uw); j < bestJag {
						best, bestJag = u, j
					}
				}
			}
			switch {
			case best < 0:
			case int(best) < nlocal:
				st.match[v] = first + best
				st.match[best] = first + v
			default:
				gid := dg.GhostGlobal[int(best)-nlocal]
				st.pending[v] = gid
				r := dg.Owner(gid)
				props[r] = append(props[r], gid, first+v, bestW)
				st.stats.Proposals++
			}
		}
		dg.Comm.Work(work)
		st.arbitrate(props)
		for v := range matchedFlag {
			matchedFlag[v] = 0
			if st.match[v] >= 0 {
				matchedFlag[v] = 1
			}
		}
		dg.ExchangeGhostsI32(matchedFlag, ghostMatch)
	}
	for v := range st.match {
		if st.match[v] < 0 {
			st.match[v] = first + int32(v)
		}
	}
	return st.match, st.stats
}

// matchInput is one named graph of the reference test.
type matchInput struct {
	name string
	g    *graph.Graph
}

// matchInputs returns the reference test's graphs with m constraints: a
// mesh with the paper's Type 1 weights and unit edges, so heaviest edges
// tie everywhere, and a power-law graph with independent random weights,
// edge weights 0 to 3, every third vertex weighing 0 in every constraint
// and every edge at a multiple of 5 weighing 0.
func matchInputs(m int) []matchInput {
	mesh := gen.Type1(gen.MRNGLike(9, 9, 9, 3), m, 7)
	pl := gen.RandomWeights(gen.PowerLaw(2000, 8, 2.3, 5), m, 11).Clone()
	for v := int32(0); int(v) < pl.NumVertices(); v++ {
		if v%3 == 0 {
			clear(pl.Vwgt[int(v)*m : int(v+1)*m])
		}
		for j := pl.Xadj[v]; j < pl.Xadj[v+1]; j++ {
			u := pl.Adjncy[j]
			pl.Adjwgt[j] = (min(u, v)*7 + max(u, v)*3) % 4
			if u%5 == 0 || v%5 == 0 {
				pl.Adjwgt[j] = 0
			}
		}
	}
	return []matchInput{{"mesh-type1", mesh}, {"powerlaw-zeros", pl}}
}

// matchRun is one rank's outcome of a distributed matching.
type matchRun struct {
	mates   []int32
	stats   MatchStats
	simTime float64
}

// runMatch runs match on p ranks under the T3E cost model and returns
// each rank's mates, stats and simulated clock.
func runMatch(g *graph.Graph, p int, opt Options, match func(*pgraph.DGraph, *rng.RNG, Options) ([]int32, MatchStats)) []matchRun {
	runs := make([]matchRun, p)
	mpi.Run(p, mpi.T3E(), func(c *mpi.Comm) {
		dg := pgraph.Distribute(c, g)
		mates, stats := match(dg, rng.New(8).Derive(uint64(c.Rank())), opt)
		runs[c.Rank()] = matchRun{mates, stats, c.SimTime()}
	})
	return runs
}

// TestMatchMatchesReference holds Match, which takes its candidates from
// coarsen.MateRule, to the candidate scan it replaced: every rank's mates,
// MatchStats and simulated clock must be identical, at p in {1, 2, 4, 16}
// and m in {1, 2, 3, 5}, with the balanced-edge tie-break on and off,
// without a weight cap and under a tight one.
func TestMatchMatchesReference(t *testing.T) {
	for _, m := range []int{1, 2, 3, 5} {
		for _, in := range matchInputs(m) {
			var maxTot int64
			for _, tot := range in.g.TotalVertexWeight() {
				maxTot = max(maxTot, tot)
			}
			tight := 1 + 2*maxTot/int64(in.g.NumVertices())
			for _, p := range []int{1, 2, 4, 16} {
				for _, balanced := range []bool{false, true} {
					for _, maxW := range []int64{0, tight} {
						tag := fmt.Sprintf("%s m=%d p=%d balanced=%v maxW=%d", in.name, m, p, balanced, maxW)
						opt := Options{BalancedEdge: balanced, MaxVertexWeight: maxW}
						got := runMatch(in.g, p, opt, Match)
						want := runMatch(in.g, p, opt, referenceMatch)
						for r := range got {
							switch {
							case !slices.Equal(got[r].mates, want[r].mates):
								i := 0
								for got[r].mates[i] == want[r].mates[i] {
									i++
								}
								t.Errorf("%s: rank %d: owned vertex %d mates %d, reference %d", tag, r, i, got[r].mates[i], want[r].mates[i])
							case got[r].stats != want[r].stats:
								t.Errorf("%s: rank %d: stats %+v, reference %+v", tag, r, got[r].stats, want[r].stats)
							case got[r].simTime != want[r].simTime:
								t.Errorf("%s: rank %d: simulated time %v, reference %v", tag, r, got[r].simTime, want[r].simTime)
							}
						}
					}
				}
			}
		}
	}
}
