package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/coarsen"
	"repro/internal/gen"
	"repro/internal/initpart"
	"repro/internal/kwayrefine"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/prefine"
	"repro/internal/rng"
	"repro/internal/serial"
)

// SchemeRow compares the three concurrent-refinement protection schemes
// (ablation 1: the paper's Section 2 argument for the reservation scheme).
type SchemeRow struct {
	Graph   string
	Scheme  string
	Cut     float64
	VsRes   float64 // cut normalized by the reservation scheme's
	Balance float64
	Moves   int64
}

// AblationSlice runs ablation 1: reservation vs static slice allocation vs
// unrestricted commits, p = k, 3-constraint Type 1 problems.
func AblationSlice(scale Scale, p int, seeds []uint64, progress io.Writer) []SchemeRow {
	if len(seeds) == 0 {
		seeds = []uint64{1, 2, 3}
	}
	var rows []SchemeRow
	for _, spec := range Meshes(scale)[1:3] { // mrng2, mrng3 stand-ins
		var res float64
		for _, sch := range []prefine.Scheme{prefine.Reservation, prefine.Slice, prefine.SliceSmart, prefine.Free} {
			var cuts, bals []float64
			var moves int64
			for _, seed := range seeds {
				w := MakeWorkload(spec, 3, 1, 100+seed)
				_, st, err := parallel.Partition(w.Graph, p, p, parallel.Options{Seed: seed, Scheme: sch})
				if err != nil {
					panic(err)
				}
				cuts = append(cuts, float64(st.EdgeCut))
				bals = append(bals, st.Imbalance)
				moves += st.Moves
				Progress(progress, "  ablslice %s %v seed=%d: cut=%d imb=%.3f", spec.Name, sch, seed, st.EdgeCut, st.Imbalance)
			}
			row := SchemeRow{
				Graph: spec.Name, Scheme: sch.String(),
				Cut: mean(cuts), Balance: mean(bals), Moves: moves / int64(len(seeds)),
			}
			if sch == prefine.Reservation {
				res = row.Cut
			}
			if res > 0 {
				row.VsRes = row.Cut / res
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// WriteSchemeRows prints ablation 1.
func WriteSchemeRows(w io.Writer, rows []SchemeRow) {
	fmt.Fprintln(w, "Ablation 1: refinement balance-protection schemes (paper §2; slice-style schemes measured up to 50% worse)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tscheme\tcut\tvs-reservation\tbalance\tmoves")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.3f\t%.3f\t%d\n", r.Graph, r.Scheme, r.Cut, r.VsRes, r.Balance, r.Moves)
	}
	tw.Flush()
}

// EdgeRow compares matching with and without the balanced-edge tie-break
// (ablation 2).
type EdgeRow struct {
	Graph    string
	M        int
	CutWith  float64
	CutNo    float64
	ImbWith  float64
	ImbNo    float64
	CutRatio float64 // without / with
}

// AblationBalancedEdge runs ablation 2 on the serial partitioner.
func AblationBalancedEdge(scale Scale, k int, seeds []uint64, progress io.Writer) []EdgeRow {
	if len(seeds) == 0 {
		seeds = []uint64{1, 2, 3}
	}
	var rows []EdgeRow
	spec := Meshes(scale)[1]
	for _, m := range []int{2, 3, 4, 5} {
		var cw, cn, iw, in []float64
		for _, seed := range seeds {
			w := MakeWorkload(spec, m, 1, 100+seed)
			_, sw, err := serial.Partition(w.Graph, k, serial.Options{Seed: seed})
			if err != nil {
				panic(err)
			}
			_, sn, err := serial.Partition(w.Graph, k, serial.Options{Seed: seed, NoBalancedEdge: true})
			if err != nil {
				panic(err)
			}
			cw = append(cw, float64(sw.EdgeCut))
			cn = append(cn, float64(sn.EdgeCut))
			iw = append(iw, sw.Imbalance)
			in = append(in, sn.Imbalance)
			Progress(progress, "  abledge m=%d seed=%d: with=%d without=%d", m, seed, sw.EdgeCut, sn.EdgeCut)
		}
		row := EdgeRow{Graph: spec.Name, M: m, CutWith: mean(cw), CutNo: mean(cn), ImbWith: mean(iw), ImbNo: mean(in)}
		if row.CutWith > 0 {
			row.CutRatio = row.CutNo / row.CutWith
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteEdgeRows prints ablation 2.
func WriteEdgeRows(w io.Writer, rows []EdgeRow) {
	fmt.Fprintln(w, "Ablation 2: balanced-edge matching tie-break (SC'98 §coarsening)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tm\tcut(with)\tcut(without)\tratio\timb(with)\timb(without)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.3f\t%.3f\t%.3f\n", r.Graph, r.M, r.CutWith, r.CutNo, r.CutRatio, r.ImbWith, r.ImbNo)
	}
	tw.Flush()
}

// RandomRow compares region-correlated (Type 1) against per-vertex random
// weights (ablation 3: the paper's Section 3 argument that random vertex
// weights degenerate to the single-constraint problem).
type RandomRow struct {
	Graph string
	M     int
	// CutType1/CutRandom: multi-constraint cuts on the two weightings.
	CutType1  float64
	CutRandom float64
	CutSingle float64 // single-constraint cut on the same mesh
	// ImbSingleOnRandom: the worst per-constraint imbalance of the
	// *single-constraint* partitioning measured against the random
	// weights — near 1.0 proves random weights need no multi-constraint
	// machinery.
	ImbSingleOnRandom float64
}

// AblationRandomWeights runs ablation 3.
func AblationRandomWeights(scale Scale, k int, seeds []uint64, progress io.Writer) []RandomRow {
	if len(seeds) == 0 {
		seeds = []uint64{1, 2, 3}
	}
	spec := Meshes(scale)[1]
	base := BaseMesh(spec)
	var rows []RandomRow
	for _, m := range []int{2, 3, 4} {
		var c1, cr, cs, imbs []float64
		for _, seed := range seeds {
			g1 := gen.Type1(base, m, 100+seed)
			gr := gen.RandomWeights(base, m, 200+seed)
			_, s1, err := serial.Partition(g1, k, serial.Options{Seed: seed})
			if err != nil {
				panic(err)
			}
			_, sr, err := serial.Partition(gr, k, serial.Options{Seed: seed})
			if err != nil {
				panic(err)
			}
			ps, ss, err := serial.Partition(base, k, serial.Options{Seed: seed})
			if err != nil {
				panic(err)
			}
			// Measure the single-constraint partitioning against the
			// random multi-constraint weights.
			imb := metrics.MaxImbalance(gr, ps, k)
			c1 = append(c1, float64(s1.EdgeCut))
			cr = append(cr, float64(sr.EdgeCut))
			cs = append(cs, float64(ss.EdgeCut))
			imbs = append(imbs, imb)
			Progress(progress, "  ablrandom m=%d seed=%d: type1=%d random=%d single=%d imb(single-on-random)=%.3f",
				m, seed, s1.EdgeCut, sr.EdgeCut, ss.EdgeCut, imb)
		}
		rows = append(rows, RandomRow{
			Graph: spec.Name, M: m,
			CutType1: mean(c1), CutRandom: mean(cr), CutSingle: mean(cs),
			ImbSingleOnRandom: mean(imbs),
		})
	}
	return rows
}

// WriteRandomRows prints ablation 3.
func WriteRandomRows(w io.Writer, rows []RandomRow) {
	fmt.Fprintln(w, "Ablation 3: random vertex weights reduce to single-constraint partitioning (paper §3)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tm\tcut(type1)\tcut(random)\tcut(single)\timb of single-constraint part on random weights")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.0f\t%.3f\n", r.Graph, r.M, r.CutType1, r.CutRandom, r.CutSingle, r.ImbSingleOnRandom)
	}
	tw.Flush()
}

// InitRow reports whether multilevel refinement recovers from an initial
// partitioning with a given injected imbalance (ablation 4: the paper's
// Section 4 note that >20% initial imbalance is unlikely to be repaired).
type InitRow struct {
	InjectedImb float64 // initial imbalance at the coarsest level
	FinalImb    float64 // after full uncoarsening + refinement
	Recovered   bool    // final within the 5% tolerance (plus slack)
}

// AblationInitImbalance runs ablation 4: the coarsest graph's initial
// partitioning is deliberately skewed by moving weight into one subdomain,
// then ordinary multilevel refinement runs; the final imbalance shows the
// recovery boundary.
func AblationInitImbalance(scale Scale, k int, seed uint64, progress io.Writer) []InitRow {
	spec := Meshes(scale)[0]
	w := MakeWorkload(spec, 3, 1, 100+seed)
	g := w.Graph
	rand := rng.New(seed)
	levels, _ := coarsen.BuildHierarchy(g, 2000, rand, coarsen.Options{BalancedEdge: true})
	coarsest := levels[len(levels)-1].Graph

	var rows []InitRow
	for _, target := range []float64{1.05, 1.10, 1.20, 1.40, 1.80} {
		part := initpart.RecursiveBisect(coarsest, k, rand, initpart.Options{Tol: 0.05})
		injectImbalance(coarsest, part, k, target, rand)
		injected := metrics.MaxImbalance(coarsest, part, k)

		ref := kwayrefine.NewRefiner(k, g.Ncon, kwayrefine.Options{Tol: 0.05})
		ref.Refine(coarsest, part, rand)
		cur := part
		for lvl := len(levels) - 1; lvl > 0; lvl-- {
			finer := levels[lvl-1].Graph
			cmap := levels[lvl].CMap
			fpart := make([]int32, finer.NumVertices())
			for v := range fpart {
				fpart[v] = cur[cmap[v]]
			}
			cur = fpart
			ref.Refine(finer, cur, rand)
		}
		final := metrics.MaxImbalance(g, cur, k)
		rows = append(rows, InitRow{
			InjectedImb: injected,
			FinalImb:    final,
			Recovered:   final <= 1.07,
		})
		Progress(progress, "  ablinit injected=%.3f final=%.3f", injected, final)
	}
	return rows
}

// injectImbalance moves random vertices into subdomain 0 until its worst
// constraint reaches the target ratio of the average.
func injectImbalance(g interface {
	NumVertices() int
	VertexWeight(int32) []int32
	TotalVertexWeight() []int64
}, part []int32, k int, target float64, rand *rng.RNG) {
	total := g.TotalVertexWeight()
	m := len(total)
	cur := make([]int64, m)
	for v := 0; v < g.NumVertices(); v++ {
		if part[v] == 0 {
			for c, x := range g.VertexWeight(int32(v)) {
				cur[c] += int64(x)
			}
		}
	}
	reached := func() bool {
		for c := 0; c < m; c++ {
			if total[c] > 0 && float64(cur[c])*float64(k)/float64(total[c]) >= target {
				return true
			}
		}
		return false
	}
	n := g.NumVertices()
	for tries := 0; tries < 50*n && !reached(); tries++ {
		v := int32(rand.Intn(n))
		if part[v] == 0 {
			continue
		}
		part[v] = 0
		for c, x := range g.VertexWeight(v) {
			cur[c] += int64(x)
		}
	}
}

// WriteInitRows prints ablation 4.
func WriteInitRows(w io.Writer, rows []InitRow) {
	fmt.Fprintln(w, "Ablation 4: recovery from imbalanced initial partitionings (paper §4: >20% unlikely to recover)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "injected imbalance\tfinal imbalance\trecovered")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.3f\t%.3f\t%v\n", r.InjectedImb, r.FinalImb, r.Recovered)
	}
	tw.Flush()
}
