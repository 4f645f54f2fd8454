package pcoarsen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pgraph"
	"repro/internal/rng"
	"repro/internal/trace"
)

func testGraph(m int) *graph.Graph {
	base := gen.MRNGLike(9, 9, 9, 3)
	if m == 1 {
		return base
	}
	return gen.Type1(base, m, 7)
}

// TestMatchIsGloballyValid gathers the distributed matching and checks it
// is an involution over adjacent pairs.
func TestMatchIsGloballyValid(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		g := testGraph(2)
		global := make([]int32, g.NumVertices())
		mpi.Run(p, mpi.Zero(), func(c *mpi.Comm) {
			dg := pgraph.Distribute(c, g)
			match, _ := Match(dg, rng.New(1).Derive(uint64(c.Rank())), Options{BalancedEdge: true})
			all, _ := c.AllgathervI32(match)
			if c.Rank() == 0 {
				copy(global, all)
			}
		})
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			u := global[v]
			if u < 0 || int(u) >= g.NumVertices() {
				t.Fatalf("p=%d: match[%d]=%d out of range", p, v, u)
			}
			if global[u] != v {
				t.Fatalf("p=%d: not an involution at %d: match=%d, reverse=%d", p, v, u, global[u])
			}
			if u != v && !adjacent(g, v, u) {
				t.Fatalf("p=%d: matched pair (%d,%d) not adjacent", p, v, u)
			}
		}
	}
}

func adjacent(g *graph.Graph, v, u int32) bool {
	adj, _ := g.Neighbors(v)
	for _, x := range adj {
		if x == u {
			return true
		}
	}
	return false
}

// TestContractConservation: distributed contraction preserves total vertex
// weight and total edge weight minus collapsed weight, like the serial one.
func TestContractConservation(t *testing.T) {
	g := testGraph(3)
	for _, p := range []int{2, 4} {
		mpi.Run(p, mpi.Zero(), func(c *mpi.Comm) {
			dg := pgraph.Distribute(c, g)
			match, _ := Match(dg, rng.New(2).Derive(uint64(c.Rank())), Options{})
			coarse, cmap := Contract(dg, match)

			ct := coarse.TotalVertexWeight()
			want := g.TotalVertexWeight()
			for i := range ct {
				if ct[i] != want[i] {
					t.Errorf("p=%d: constraint %d total %d, want %d", p, i, ct[i], want[i])
				}
			}
			// cmap validity: in range of the coarse numbering.
			cn := int32(coarse.GlobalN())
			for v, cv := range cmap {
				if cv < 0 || cv >= cn {
					t.Fatalf("p=%d: cmap[%d] = %d out of [0,%d)", p, v, cv, cn)
				}
			}
			// Gathered coarse graph must be structurally valid.
			gg := coarse.Gather()
			if c.Rank() == 0 {
				if err := gg.Validate(); err != nil {
					t.Errorf("p=%d: coarse graph invalid: %v", p, err)
				}
			}
		})
	}
}

// TestParallelContractMatchesSerialSemantics: project a random coarse
// partition to the fine graph; cuts must agree (the defining property of
// contraction).
func TestParallelContractMatchesSerialSemantics(t *testing.T) {
	g := testGraph(2)
	mpi.Run(4, mpi.Zero(), func(c *mpi.Comm) {
		dg := pgraph.Distribute(c, g)
		match, _ := Match(dg, rng.New(5).Derive(uint64(c.Rank())), Options{})
		coarse, cmap := Contract(dg, match)

		// Same random coarse partition on every rank.
		r := rng.New(77)
		cpartAll := make([]int32, coarse.GlobalN())
		for i := range cpartAll {
			cpartAll[i] = int32(r.Intn(3))
		}
		// Fine projection via cmap (local) -> gather.
		fineLocal := make([]int32, dg.NLocal())
		for v := range fineLocal {
			fineLocal[v] = cpartAll[cmap[v]]
		}
		fineAll, _ := c.AllgathervI32(fineLocal)
		cg := coarse.Gather()
		if c.Rank() == 0 {
			cc := metrics.EdgeCut(cg, cpartAll)
			fc := metrics.EdgeCut(g, fineAll)
			if cc != fc {
				t.Errorf("projection changed cut: coarse %d, fine %d", cc, fc)
			}
		}
	})
}

func TestBuildHierarchyParallel(t *testing.T) {
	g := testGraph(2)
	mpi.Run(4, mpi.Zero(), func(c *mpi.Comm) {
		dg := pgraph.Distribute(c, g)
		levels := BuildHierarchy(dg, 100, rng.New(3).Derive(uint64(c.Rank())), Options{BalancedEdge: true})
		if len(levels) < 2 {
			t.Fatal("no coarsening")
		}
		for i := 1; i < len(levels); i++ {
			if levels[i].DG.GlobalN() >= levels[i-1].DG.GlobalN() {
				t.Errorf("level %d did not shrink", i)
			}
			if len(levels[i].CMap) != levels[i-1].DG.NLocal() {
				t.Errorf("level %d CMap sized %d, want %d", i, len(levels[i].CMap), levels[i-1].DG.NLocal())
			}
		}
		if last := levels[len(levels)-1].DG.GlobalN(); last > 250 {
			t.Errorf("coarsest %d vertices, want near 100", last)
		}
	})
}

// TestSlowCoarsening documents the paper's observation: the parallel
// arbitration protocol matches fewer vertices per round than serial
// matching, so the shrink factor is milder at higher p.
func TestSlowCoarsening(t *testing.T) {
	g := testGraph(1)
	shrink := func(p int) float64 {
		var ratio float64
		mpi.Run(p, mpi.Zero(), func(c *mpi.Comm) {
			dg := pgraph.Distribute(c, g)
			match, _ := Match(dg, rng.New(4).Derive(uint64(c.Rank())), Options{Rounds: 1})
			coarse, _ := Contract(dg, match)
			if c.Rank() == 0 {
				ratio = float64(coarse.GlobalN()) / float64(g.NumVertices())
			}
		})
		return ratio
	}
	r1, r8 := shrink(1), shrink(8)
	t.Logf("single-round shrink: p=1 %.3f, p=8 %.3f", r1, r8)
	if r8 < r1-0.05 {
		t.Errorf("p=8 coarsened faster (%.3f) than p=1 (%.3f); expected slow coarsening", r8, r1)
	}
}

// TestLevelSpansCountProposals: a traced p=4 hierarchy ends every
// coarsen.level span with the rank's proposals and rejections, and a rank
// never has more requests rejected than it sent.
func TestLevelSpansCountProposals(t *testing.T) {
	g := testGraph(2)
	const p = 4
	tr := trace.New("test")
	mpi.Run(p, mpi.Zero(), func(c *mpi.Comm) {
		dg := pgraph.Distribute(c, g)
		BuildHierarchy(dg, 100, rng.New(3).Derive(uint64(c.Rank())),
			Options{BalancedEdge: true, Trace: tr.Rank(c.Rank())})
	})
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var exported struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &exported); err != nil {
		t.Fatal(err)
	}
	spans, proposed := make(map[int]int), 0.0
	for _, e := range exported.TraceEvents {
		if e.Name != "coarsen.level" || e.Ph != "E" {
			continue
		}
		spans[e.Tid]++
		props, ok1 := e.Args["proposals"].(float64)
		rej, ok2 := e.Args["rejected"].(float64)
		if !ok1 || !ok2 {
			t.Fatalf("rank %d: coarsen.level span ends without proposals/rejected: %v", e.Tid, e.Args)
		}
		if rej < 0 || rej > props {
			t.Errorf("rank %d: %v rejected of %v proposals", e.Tid, rej, props)
		}
		proposed += props
	}
	if len(spans) != p {
		t.Fatalf("coarsen.level spans on %d ranks, want %d", len(spans), p)
	}
	if proposed == 0 {
		t.Error("no rank sent a proposal; the input does not exercise the counters")
	}
}

// referenceContract is the sort-based contraction that Contract's bucket
// merge replaced: the same coarse numbering, send buffers grown by append,
// and one global sort of the received edge records by (source,
// destination) before duplicates are merged. Collective, like Contract.
func referenceContract(dg *pgraph.DGraph, match []int32) (*pgraph.DGraph, []int32) {
	c := dg.Comm
	p := c.Size()
	nlocal := dg.NLocal()
	m := dg.Ncon
	cvtxdist, cmap, ghostCmap := coarseIDs(dg, match)
	cfirst := cvtxdist[c.Rank()]

	wbuf := make([][]int32, p)
	ebuf := make([][]int32, p)
	for v := 0; v < nlocal; v++ {
		cv := cmap[v]
		r := pgraph.OwnerIn(cvtxdist, cv)
		wbuf[r] = append(wbuf[r], cv)
		wbuf[r] = append(wbuf[r], dg.Vwgt[v*m:(v+1)*m]...)
		for e := dg.Xadj[v]; e < dg.Xadj[v+1]; e++ {
			u := dg.Adjncy[e]
			var cu int32
			if int(u) < nlocal {
				cu = cmap[u]
			} else {
				cu = ghostCmap[int(u)-nlocal]
			}
			if cu != cv {
				ebuf[r] = append(ebuf[r], cv, cu, dg.Adjwgt[e])
			}
		}
	}
	win := c.AlltoallvI32(wbuf)
	ein := c.AlltoallvI32(ebuf)

	cn := int(cvtxdist[c.Rank()+1] - cfirst)
	cvwgt := make([]int32, cn*m)
	for _, buf := range win {
		for i := 0; i+m+1 <= len(buf); i += m + 1 {
			lv := int(buf[i] - cfirst)
			for j := 0; j < m; j++ {
				cvwgt[lv*m+j] += buf[i+1+j]
			}
		}
	}
	type edge struct{ src, dst, w int32 }
	var edges []edge
	for _, buf := range ein {
		for i := 0; i+3 <= len(buf); i += 3 {
			edges = append(edges, edge{src: buf[i] - cfirst, dst: buf[i+1], w: buf[i+2]})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].src != edges[j].src {
			return edges[i].src < edges[j].src
		}
		return edges[i].dst < edges[j].dst
	})
	merged := edges[:0]
	for _, e := range edges {
		if k := len(merged); k > 0 && merged[k-1].src == e.src && merged[k-1].dst == e.dst {
			merged[k-1].w += e.w
		} else {
			merged = append(merged, e)
		}
	}
	cxadj := make([]int32, cn+1)
	cadjg := make([]int32, len(merged))
	cadjw := make([]int32, len(merged))
	for i, e := range merged {
		cxadj[e.src+1]++
		cadjg[i] = e.dst
		cadjw[i] = e.w
	}
	for v := 0; v < cn; v++ {
		cxadj[v+1] += cxadj[v]
	}
	return pgraph.NewFromGlobalCSR(c, m, cvtxdist, cxadj, cadjg, cadjw, cvwgt), cmap
}

// TestContractMatchesSortReference holds Contract's bucket merge to the
// sort-based reference: at every level of a hierarchy the coarse CSR,
// weights, ghost table and cmap must be identical on every rank. The
// power-law graph's hub gives one bucket over a thousand records.
func TestContractMatchesSortReference(t *testing.T) {
	mesh := gen.MRNGLike(12, 12, 12, 3)
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"mesh-type1", gen.Type1(mesh, 3, 7)},
		{"mesh-type2", gen.Type2(mesh, 3, 7)},
		{"powerlaw", gen.PowerLaw(4000, 8, 2.2, 11)},
	}
	for _, in := range inputs {
		for _, p := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/p%d", in.name, p), func(t *testing.T) {
				mpi.Run(p, mpi.Zero(), func(c *mpi.Comm) {
					dg := pgraph.Distribute(c, in.g)
					rand := rng.New(6).Derive(uint64(c.Rank()))
					for level := 1; level <= 4; level++ {
						match, _ := Match(dg, rand, Options{BalancedEdge: true})
						coarse, cmap := Contract(dg, match)
						ref, refCmap := referenceContract(dg, match)
						for _, f := range []struct {
							field     string
							got, want []int32
						}{
							{"cmap", cmap, refCmap},
							{"VtxDist", coarse.VtxDist, ref.VtxDist},
							{"Xadj", coarse.Xadj, ref.Xadj},
							{"Adjncy", coarse.Adjncy, ref.Adjncy},
							{"Adjwgt", coarse.Adjwgt, ref.Adjwgt},
							{"Vwgt", coarse.Vwgt, ref.Vwgt},
							{"GhostGlobal", coarse.GhostGlobal, ref.GhostGlobal},
						} {
							if !slices.Equal(f.got, f.want) {
								t.Errorf("rank %d level %d: %s differs from the sort-based reference", c.Rank(), level, f.field)
							}
						}
						dg = coarse
					}
				})
			})
		}
	}
}
