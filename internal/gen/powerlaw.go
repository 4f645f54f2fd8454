// Power-law (social-network-like) graph generation. The mesh generators in
// this package all produce small bounded degree — the well-shaped regime
// the SC'98 analysis assumes. PowerLaw produces the opposite regime: a
// Chung-Lu random graph whose expected degree sequence follows a power law
// with the requested exponent, so a few hub vertices carry degrees in the
// hundreds or thousands while the median vertex keeps a handful of
// neighbors. This is the workload class on which heavy-edge matching
// collapses (a hub can match only once per level, stranding the rest of
// its neighborhood) and for which the cluster-coarsening scheme of
// internal/lp exists.

package gen

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// PowerLaw returns a Chung-Lu random graph with n vertices, expected
// average degree avgDeg, and a power-law expected degree distribution with
// the given exponent (typical social networks: 2 < exponent <= 3; smaller
// means heavier tail). Vertex v's expected degree is proportional to
// (v+1)^(-1/(exponent-1)), normalized so the mean is avgDeg; each edge
// {u,v} is present independently with probability min(1, w_u*w_v/S). The
// construction is the skip-sampling algorithm of Miller & Hagberg, O(n+m)
// rather than O(n^2), and draws only from the deterministic internal/rng
// stream, so a fixed (n, avgDeg, exponent, seed) reproduces the graph
// exactly on every platform.
//
// The result has one constraint and unit weights (overlay Type1/Type2 for
// multi-constraint problems). It may be disconnected — isolated low-weight
// vertices are a real feature of this graph class, and the pipeline
// (including Regions' round-robin fallback) handles them.
func PowerLaw(n int, avgDeg, exponent float64, seed uint64) *graph.Graph {
	if n < 1 {
		panic("gen: PowerLaw with n < 1")
	}
	if avgDeg <= 0 || avgDeg >= float64(n) {
		panic(fmt.Sprintf("gen: PowerLaw with avgDeg %g, want 0 < avgDeg < n", avgDeg))
	}
	if exponent <= 2 {
		panic(fmt.Sprintf("gen: PowerLaw with exponent %g, want > 2 (finite mean degree)", exponent))
	}
	// Expected degrees: w_v = c*(v+1)^(-alpha) with alpha = 1/(exponent-1),
	// scaled so the average is avgDeg. S = sum of all w.
	alpha := 1 / (exponent - 1)
	w := make([]float64, n)
	var sum float64
	for v := range w {
		w[v] = math.Pow(float64(v+1), -alpha)
		sum += w[v]
	}
	c := avgDeg * float64(n) / sum
	for v := range w {
		w[v] *= c
	}
	s := avgDeg * float64(n)

	r := rng.New(seed)
	b := graph.NewBuilder(n, 1)
	b.Grow(int(s / 2)) // the expected edge count
	// Weights are non-increasing in v, so for fixed u the edge probability
	// p(u,v) is non-increasing in v and the geometric skip length drawn at
	// probability p over-counts candidates, corrected by the q/p acceptance
	// test (Miller & Hagberg 2011).
	for u := 0; u < n-1; u++ {
		v := u + 1
		p := math.Min(1, w[u]*w[v]/s)
		for v < n && p > 0 {
			if p < 1 {
				// 1 - Float64() is in (0,1], so the log is finite.
				v += int(math.Floor(math.Log(1-r.Float64()) / math.Log(1-p)))
			}
			if v >= n {
				break
			}
			q := math.Min(1, w[u]*w[v]/s)
			if r.Float64() < q/p {
				b.AddEdge(int32(u), int32(v), 1)
			}
			p = q
			v++
		}
	}
	return b.MustFinish()
}

// PowerLawSpec names a power-law graph at a given scale, the skewed-degree
// counterpart of MeshSpec.
type PowerLawSpec struct {
	Name     string
	N        int
	AvgDeg   float64
	Exponent float64
}

// Build generates the graph.
func (s PowerLawSpec) Build(seed uint64) *graph.Graph {
	return PowerLaw(s.N, s.AvgDeg, s.Exponent, seed)
}

// PowerLawSpecs are the standard skewed-degree workloads of the
// experiments, sized to mirror the tiny/scaled/paper mesh tiers. All use
// exponent 2.5 (the classic social-network value) and average degree 8.
var PowerLawSpecs = []PowerLawSpec{
	{Name: "plaw1t", N: 8192, AvgDeg: 8, Exponent: 2.5},
	{Name: "plaw1s", N: 65536, AvgDeg: 8, Exponent: 2.5},
	{Name: "plaw1", N: 524288, AvgDeg: 8, Exponent: 2.5},
}

// PowerLawByName returns the named spec from PowerLawSpecs.
func PowerLawByName(name string) (PowerLawSpec, bool) {
	for _, s := range PowerLawSpecs {
		if s.Name == name {
			return s, true
		}
	}
	return PowerLawSpec{}, false
}
