package kwayrefine

import (
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/vecw"
)

// reference is the full-scan refiner the production refiner is pinned
// bit-identical to: every pass visits all n vertices in the same random
// order and re-derives each vertex's gain rows and internal degree from its
// adjacency list, deciding boundary-ness by that scan instead of the
// boundary set, the row bound or the candidate gate. Move selection
// (greedyMove, balanceMove) and move application are shared, so the
// reference pins exactly what the production refiner caches and skips.
type reference struct{ *Refiner }

func newReference(k, m int, opt Options) reference {
	return reference{NewRefiner(k, m, opt)}
}

// Refine mirrors Refiner.Refine without the stop, trace and check hooks.
func (r reference) Refine(g *graph.Graph, part []int32, rand *rng.RNG) int {
	r.setup(g, part)
	total := 0
	for pass := 0; pass < r.opt.Passes; pass++ {
		moves := 0
		if r.st.Imbalanced() {
			moves += r.balancePass(g, part, rand)
		}
		moves += r.greedyPass(g, part, rand)
		total += moves
		if moves == 0 {
			break
		}
	}
	return total
}

func (r reference) greedyPass(g *graph.Graph, part []int32, rand *rng.RNG) int {
	rand.Perm(r.order)
	moves := 0
	for _, v := range r.order {
		id, boundary := r.gatherScan(g, part, v)
		if !boundary {
			continue
		}
		a, vw := part[v], g.VertexWeight(v)
		if b, gain := r.greedyMove(a, vw, id); b >= 0 {
			r.apply(g, v, a, b, vw, gain)
			moves++
		}
	}
	return moves
}

func (r reference) balancePass(g *graph.Graph, part []int32, rand *rng.RNG) int {
	rand.Perm(r.order)
	m := r.m
	moves := 0
	for _, v := range r.order {
		a := part[v]
		if !vecw.AnyOver(r.st.Pwgts[int(a)*m:(int(a)+1)*m], r.st.Limit[int(a)*m:(int(a)+1)*m]) {
			continue
		}
		vw := g.VertexWeight(v)
		id, _ := r.gatherScan(g, part, v)
		if b, gain := r.balanceMove(v, a, vw, id); b >= 0 {
			r.apply(g, v, a, b, vw, gain)
			moves++
			if !vecw.AnyOver(r.st.Pwgts[int(a)*m:(int(a)+1)*m], r.st.Limit[int(a)*m:(int(a)+1)*m]) &&
				!r.st.Imbalanced() {
				break
			}
		}
	}
	return moves
}

// gatherScan loads v's gain rows from a fresh adjacency scan and returns
// its from-scratch internal degree and whether it has a foreign neighbor.
func (r reference) gatherScan(g *graph.Graph, part []int32, v int32) (id int64, boundary bool) {
	r.st.Rows.Clear()
	a := part[v]
	adj, wgt := g.Neighbors(v)
	for i, u := range adj {
		if b := part[u]; b != a {
			r.st.Rows.Add(v, b, int64(wgt[i]))
		} else {
			id += int64(wgt[i])
		}
	}
	return id, len(r.st.Rows.Touched()) > 0
}
