package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Regions splits the graph into r contiguous regions and returns a label in
// [0, r) per vertex. It implements a graph Voronoi partition: r seeds are
// spread out by farthest-point sampling (each new seed is the first vertex
// no seed reaches or, when every vertex is reached, the first vertex at the
// largest BFS distance from the chosen seeds), and every vertex takes the
// label of its nearest seed, the lowest seed index on a tie.
//
// dist and label hold the distance to, and the index of, the nearest seed
// chosen so far. Adding seed i runs one BFS from that seed alone, which
// relabels and expands a vertex only when the new seed is strictly closer:
// a vertex it does not improve shields every vertex behind it, so dist
// stays the exact multi-source distance, and a tie keeps the lower index.
// Each BFS touches only the cell its seed takes over, about n·H(r) vertex
// visits per call instead of r full sweeps (DESIGN.md, "Workload
// regions").
//
// The paper constructs its workloads from a 16-way (Type 1) or 32-way
// (Type 2) partitioning whose only used property is that each subdomain
// "models a contiguous region of mesh elements"; a Voronoi region assignment
// provides exactly that property without a circular dependency on the
// partitioner under test.
func Regions(g *graph.Graph, r int, seed uint64) []int32 {
	n := g.NumVertices()
	if r < 1 {
		panic("gen: Regions with r < 1")
	}
	if n == 0 {
		// An empty inline graph reaches here from a client request.
		return []int32{}
	}
	if r > n {
		r = n
	}
	rand := rng.New(seed)

	dist := make([]int32, n)
	label := make([]int32, n)
	queue := make([]int32, 0, n)
	for i := range dist {
		dist[i] = -1
		label[i] = -1
	}
	s := int32(rand.Intn(n))
	for i := int32(0); ; i++ {
		// A vertex is relabelled at most once per BFS (the first relaxation
		// of a single-source BFS is already its distance), so queue never
		// outgrows its n-sized buffer.
		dist[s], label[s] = 0, i
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			d := dist[v] + 1
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				if dist[u] < 0 || d < dist[u] {
					dist[u], label[u] = d, i
					queue = append(queue, u)
				}
			}
		}
		if int(i)+1 == r {
			break
		}
		s = farthest(dist)
	}

	// Unreached vertices (disconnected graph with fewer seeds than
	// components) are assigned round-robin so every vertex has a region.
	next := int32(0)
	for v := 0; v < n; v++ {
		if label[v] < 0 {
			label[v] = next
			next = (next + 1) % int32(r)
		}
	}
	return label
}

// farthest returns the next farthest-point seed: the first vertex no seed
// reaches (another component), else the first vertex at the largest
// distance.
func farthest(dist []int32) int32 {
	far, farDist := int32(-1), int32(-1)
	for v, d := range dist {
		if d < 0 {
			return int32(v)
		}
		if d > farDist {
			far, farDist = int32(v), d
		}
	}
	return far
}

// type1Regions is the number of contiguous regions the paper uses for
// Type 1 problems, and type2Regions for Type 2.
const (
	type1Regions = 16
	type2Regions = 32
	// type1MaxWeight bounds the random region weights: "each vector
	// contains m random numbers ranging from 0 to 19".
	type1MaxWeight = 20
)

// Type1 builds a Type 1 multi-constraint problem from the paper: the graph
// is split into 16 contiguous regions, every vertex in a region receives
// the same random m-component weight vector with entries in [0, 19], and
// edge weights are left at 1. The returned graph shares the input's
// topology (Xadj/Adjncy are reused, not copied).
func Type1(g *graph.Graph, m int, seed uint64) *graph.Graph {
	if m < 1 {
		panic("gen: Type1 with m < 1")
	}
	label := Regions(g, type1Regions, seed)
	rand := rng.New(seed ^ 0x7e57a11ca7ed0001)
	regionW := make([]int32, type1Regions*m)
	for i := range regionW {
		regionW[i] = int32(rand.Intn(type1MaxWeight))
	}
	// Guard: a constraint with zero total weight makes "balance" vacuous
	// and divides by zero downstream; give it one unit somewhere.
	for c := 0; c < m; c++ {
		var tot int64
		for reg := 0; reg < type1Regions; reg++ {
			tot += int64(regionW[reg*m+c])
		}
		if tot == 0 {
			regionW[c] = 1
		}
	}
	n := g.NumVertices()
	vwgt := make([]int32, n*m)
	for v := 0; v < n; v++ {
		copy(vwgt[v*m:(v+1)*m], regionW[int(label[v])*m:(int(label[v])+1)*m])
	}
	return &graph.Graph{Ncon: m, Xadj: g.Xadj, Adjncy: g.Adjncy, Adjwgt: g.Adjwgt, Vwgt: vwgt}
}

// ActiveFractions returns the paper's per-phase active fractions for an
// m-phase Type 2 problem: 100%, 75%, 50%, 50%, 25% truncated to m entries.
func ActiveFractions(m int) []float64 {
	all := []float64{1.0, 0.75, 0.50, 0.50, 0.25}
	if m < 1 || m > len(all) {
		panic(fmt.Sprintf("gen: Type 2 problems support 1..5 phases, got %d", m))
	}
	return all[:m]
}

// Type2 builds a Type 2 multi-phase problem from the paper: the graph is
// split into 32 contiguous regions; for each phase i a random subset of
// regions covering ActiveFractions(m)[i] of the 32 is active; a vertex's
// weight vector is the 0/1 activity indicator per phase; and each edge's
// weight is the number of phases in which both endpoints are active (the
// paper's model of communication volume; at least 1 here because phase 0
// is active everywhere, though the Builder accepts zero-weight edges for
// custom workloads without an always-on phase).
func Type2(g *graph.Graph, m int, seed uint64) *graph.Graph {
	frac := ActiveFractions(m)
	label := Regions(g, type2Regions, seed)
	rand := rng.New(seed ^ 0x7e57a11ca7ed0002)

	active := make([]bool, type2Regions*m) // active[reg*m+phase]
	perm := make([]int32, type2Regions)
	for phase := 0; phase < m; phase++ {
		count := int(frac[phase]*type2Regions + 0.5)
		rand.Perm(perm)
		for i := 0; i < count; i++ {
			active[int(perm[i])*m+phase] = true
		}
	}

	n := g.NumVertices()
	vwgt := make([]int32, n*m)
	for v := 0; v < n; v++ {
		reg := int(label[v])
		for phase := 0; phase < m; phase++ {
			if active[reg*m+phase] {
				vwgt[v*m+phase] = 1
			}
		}
	}

	adjwgt := make([]int32, len(g.Adjncy))
	for v := int32(0); int(v) < n; v++ {
		start, end := g.Xadj[v], g.Xadj[v+1]
		for e := start; e < end; e++ {
			u := g.Adjncy[e]
			var w int32
			for phase := 0; phase < m; phase++ {
				if vwgt[int(v)*m+phase] == 1 && vwgt[int(u)*m+phase] == 1 {
					w++
				}
			}
			adjwgt[e] = w
		}
	}
	return &graph.Graph{Ncon: m, Xadj: g.Xadj, Adjncy: g.Adjncy, Adjwgt: adjwgt, Vwgt: vwgt}
}

// RandomWeights assigns every vertex an independent random m-component
// weight vector with entries in [0, 19]. The paper explains (Section 3)
// that this degenerates to a single-constraint problem — the ablation
// reproduced by BenchmarkAblationRandomWeights.
func RandomWeights(g *graph.Graph, m int, seed uint64) *graph.Graph {
	rand := rng.New(seed)
	n := g.NumVertices()
	vwgt := make([]int32, n*m)
	for i := range vwgt {
		vwgt[i] = int32(rand.Intn(type1MaxWeight))
	}
	return &graph.Graph{Ncon: m, Xadj: g.Xadj, Adjncy: g.Adjncy, Adjwgt: g.Adjwgt, Vwgt: vwgt}
}
