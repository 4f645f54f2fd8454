package lp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/arena"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
)

// The sequential rounds skip clean vertices (DESIGN.md, "Coarsening
// schemes"). They are pinned bit-identical to the full-scan rounds kept
// here as the oracle: every round evaluates every vertex with a fresh
// adjacency scan, through the decision function the package had before
// the skip. Both draw the same permutations and share finish, so cmap, nc
// and the moves of every round must agree.

// referenceScan is the oracle's scan context: an epoch marker beside a
// per-label slot array, as the package scanned before the slot marker.
type referenceScan struct {
	marker arena.Marker
	slot   []int32
	lab    []int32
	w      []int64
}

// decide returns the cluster v joins: the neighboring cluster with the
// greatest connecting edge weight among those with cap room, ties toward
// the lowest label, staying put unless strictly better.
func (rs *referenceScan) decide(g *graph.Graph, label []int32, cw []int64, caps []int64, m int, v int32) int32 {
	a := label[v]
	adj, wgt := g.Neighbors(v)
	if len(adj) == 0 {
		return a
	}
	candLab := rs.lab[:0]
	candW := rs.w[:0]
	rs.marker.Next()
	for i, u := range adj {
		lu := label[u]
		if rs.marker.TryMark(lu) {
			rs.slot[lu] = int32(len(candLab))
			candLab = append(candLab, lu)
			candW = append(candW, int64(wgt[i]))
		} else {
			candW[rs.slot[lu]] += int64(wgt[i])
		}
	}
	rs.lab, rs.w = candLab, candW
	best, bestW := a, int64(0)
	if rs.marker.Marked(a) {
		bestW = candW[rs.slot[a]]
	}
	vw := g.VertexWeight(v)
	for j, lab := range candLab {
		if lab == a {
			continue
		}
		w := candW[j]
		if (w > bestW || (w == bestW && lab < best)) && fitsCluster(cw, lab, vw, caps, m) {
			best, bestW = lab, w
		}
	}
	return best
}

// clusterFullScan is the oracle: Cluster's sequential pass with every
// vertex evaluated in every round. It returns cmap, nc and the moves of
// each executed round.
func clusterFullScan(g *graph.Graph, rand *rng.RNG, opt Options) ([]int32, int, []int) {
	n, m := g.NumVertices(), g.Ncon
	rounds := opt.Rounds
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	caps := opt.MaxClusterWeight
	label, cnt, order := make([]int32, n), make([]int32, n), make([]int32, n)
	cw := make([]int64, n*m)
	for v := 0; v < n; v++ {
		label[v], cnt[v] = int32(v), 1
		for c := 0; c < m; c++ {
			cw[v*m+c] = int64(g.Vwgt[v*m+c])
		}
	}
	rs := &referenceScan{slot: make([]int32, n)}
	rs.marker.Grow(n)
	var perRound []int
	for round := 0; round < rounds; round++ {
		rand.Perm(order)
		moves := 0
		for _, v := range order {
			if best := rs.decide(g, label, cw, caps, m, v); best != label[v] {
				a := label[v]
				for c, w := range g.VertexWeight(v) {
					cw[int(a)*m+c] -= int64(w)
					cw[int(best)*m+c] += int64(w)
				}
				cnt[a]--
				cnt[best]++
				label[v] = best
				moves++
			}
		}
		perRound = append(perRound, moves)
		if moves == 0 {
			break
		}
	}
	cmap, nc := finish(g, label, cw, cnt, caps, m, order)
	return cmap, nc, perRound
}

// roundSpan is what one lp.round span reports when it ends.
type roundSpan struct{ moves, evaluated int }

// roundSpans returns the lp.round spans tr recorded, in order.
func roundSpans(t *testing.T, tr *trace.Tracer) []roundSpan {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var exported struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				Moves, Evaluated *int
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &exported); err != nil {
		t.Fatal(err)
	}
	var spans []roundSpan
	for _, e := range exported.TraceEvents {
		if e.Name != "lp.round" || e.Ph != "E" {
			continue
		}
		if e.Args.Moves == nil || e.Args.Evaluated == nil {
			t.Fatalf("lp.round span %d ends without moves and evaluated", len(spans))
		}
		spans = append(spans, roundSpan{*e.Args.Moves, *e.Args.Evaluated})
	}
	return spans
}

// zeroWeights returns a copy of g in which every vertex whose id is a
// multiple of 5 weighs 0 in every constraint and every edge touching a
// multiple of 3 weighs 0.
func zeroWeights(g *graph.Graph) *graph.Graph {
	z := g.Clone()
	for v := int32(0); int(v) < z.NumVertices(); v++ {
		if v%5 == 0 {
			clear(z.Vwgt[int(v)*z.Ncon : int(v+1)*z.Ncon])
		}
		for j := z.Xadj[v]; j < z.Xadj[v+1]; j++ {
			if v%3 == 0 || z.Adjncy[j]%3 == 0 {
				z.Adjwgt[j] = 0
			}
		}
	}
	return z
}

// tightCaps returns per-constraint caps of 1 + num/den of each
// constraint's average vertex weight.
func tightCaps(g *graph.Graph, num, den int64) []int64 {
	n := int64(g.NumVertices())
	caps := g.TotalVertexWeight()
	for c, t := range caps {
		caps[c] = 1 + t*num/(n*den)
	}
	return caps
}

// TestClusterMatchesFullScan pins the skipping rounds to the full-scan
// oracle: the same cmap, nc and moves per round on
// power-law graphs under tight caps at m ∈ {1, 2, 3}, a mesh, a graph with
// degree-0 vertices, zero vertex weights and zero-weight edges, and without
// caps.
func TestClusterMatchesFullScan(t *testing.T) {
	type problem struct {
		name string
		g    *graph.Graph
		caps []int64
	}
	var problems []problem
	for _, m := range []int{1, 2, 3} {
		g := gen.PowerLaw(4000, 8, 2.5, 31)
		if m > 1 {
			g = gen.Type1(g, m, 17)
		}
		problems = append(problems,
			problem{fmt.Sprintf("powerlaw m=%d caps 3/2 avg", m), g, tightCaps(g, 3, 2)},
			problem{fmt.Sprintf("powerlaw m=%d caps 3 avg", m), g, tightCaps(g, 3, 1)})
	}
	mesh := gen.Type1(gen.MRNGLike(12, 10, 8, 5), 2, 17)
	zero := zeroWeights(gen.Type1(gen.PowerLaw(3000, 6, 2.3, 5), 2, 17))
	problems = append(problems,
		problem{"mesh m=2", mesh, tightCaps(mesh, 4, 1)},
		problem{"zero weights m=2", zero, tightCaps(zero, 3, 1)},
		problem{"powerlaw nil caps", gen.PowerLaw(3000, 8, 2.5, 3), nil},
	)
	for _, p := range problems {
		for _, seed := range []uint64{1, 7} {
			for _, rounds := range []int{0, 9} {
				tag := fmt.Sprintf("%s seed=%d rounds=%d", p.name, seed, rounds)
				opt := Options{Rounds: rounds, MaxClusterWeight: p.caps}
				wantCmap, wantNC, wantMoves := clusterFullScan(p.g, rng.New(seed), opt)
				tr := trace.New("test")
				opt.Trace = tr.Rank(0)
				cmap, nc := ClusterInto(p.g, rng.New(seed), opt, NewScratch())
				if nc != wantNC {
					t.Fatalf("%s: nc = %d, full scan %d", tag, nc, wantNC)
				}
				for v := range cmap {
					if cmap[v] != wantCmap[v] {
						t.Fatalf("%s: cmap diverges first at vertex %d: %d, full scan %d",
							tag, v, cmap[v], wantCmap[v])
					}
				}
				spans := roundSpans(t, tr)
				if len(spans) != len(wantMoves) {
					t.Fatalf("%s: %d rounds, full scan %d", tag, len(spans), len(wantMoves))
				}
				for r, sp := range spans {
					if sp.moves != wantMoves[r] {
						t.Errorf("%s: round %d moved %d, full scan %d", tag, r, sp.moves, wantMoves[r])
					}
				}
			}
		}
	}
}

// TestClusterSkipsCleanVertices is the work test of the skip, which the
// outputs alone cannot show: on a power-law graph under the cap rule of
// cluster coarsening, the first round evaluates every vertex, and round 3
// and later evaluate under a tenth of them.
func TestClusterSkipsCleanVertices(t *testing.T) {
	g := gen.PowerLaw(20000, 8, 2.5, 9)
	n := g.NumVertices()
	tr := trace.New("test")
	ClusterInto(g, rng.New(1), Options{MaxClusterWeight: tightCaps(g, 2, 1), Trace: tr.Rank(0)}, NewScratch())
	spans := roundSpans(t, tr)
	if len(spans) < 3 {
		t.Fatalf("only %d rounds ran; the input does not exercise late rounds", len(spans))
	}
	for r, sp := range spans {
		t.Logf("round %d: evaluated %d, moves %d", r, sp.evaluated, sp.moves)
		switch {
		case r == 0 && sp.evaluated != n:
			t.Errorf("round 0 evaluated %d of %d vertices, want all", sp.evaluated, n)
		case r >= 2 && sp.evaluated >= n/10:
			t.Errorf("round %d evaluated %d of %d vertices, want under a tenth", r, sp.evaluated, n)
		}
	}
}
