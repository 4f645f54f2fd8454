package graph

// Reference implementations the production code is compared against: the
// sort-based Builder.Finish, the scan-only Validate, and the METIS reader
// that splits each line with strings.Fields, parses each field with
// strconv.ParseInt and assembles the graph through the Builder, matching
// each line's entries for lower neighbors against it afterwards.

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// finishReference assembles the CSR by sorting the canonicalized edge
// list and merging its runs. It reorders b's edges.
func finishReference(b *Builder) (*Graph, error) {
	for _, e := range b.edges {
		if e.U < 0 || int(e.U) >= b.n || e.V < 0 || int(e.V) >= b.n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, b.n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", e.U)
		}
		if e.W < 0 {
			return nil, fmt.Errorf("graph: edge (%d,%d) has negative weight %d", e.U, e.V, e.W)
		}
	}
	// Canonicalize (min,max) endpoint order, sort, and merge duplicates.
	for i := range b.edges {
		if b.edges[i].U > b.edges[i].V {
			b.edges[i].U, b.edges[i].V = b.edges[i].V, b.edges[i].U
		}
	}
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].U != b.edges[j].U {
			return b.edges[i].U < b.edges[j].U
		}
		return b.edges[i].V < b.edges[j].V
	})
	merged := b.edges[:0]
	for _, e := range b.edges {
		if k := len(merged); k > 0 && merged[k-1].U == e.U && merged[k-1].V == e.V {
			merged[k-1].W += e.W
		} else {
			merged = append(merged, e)
		}
	}

	// The int32 CSR bound must hold on the merged total before any Xadj
	// arithmetic: past it the prefix sums below wrap silently.
	if err := checkAdjncyLen(2 * int64(len(merged))); err != nil {
		return nil, err
	}

	xadj := make([]int32, b.n+1)
	for _, e := range merged {
		xadj[e.U+1]++
		xadj[e.V+1]++
	}
	for v := 0; v < b.n; v++ {
		xadj[v+1] += xadj[v]
	}
	adjncy := make([]int32, xadj[b.n])
	adjwgt := make([]int32, xadj[b.n])
	next := make([]int32, b.n)
	copy(next, xadj[:b.n])
	for _, e := range merged {
		adjncy[next[e.U]], adjwgt[next[e.U]] = e.V, e.W
		next[e.U]++
		adjncy[next[e.V]], adjwgt[next[e.V]] = e.U, e.W
		next[e.V]++
	}
	g := &Graph{Ncon: b.ncon, Xadj: xadj, Adjncy: adjncy, Adjwgt: adjwgt, Vwgt: b.vwgt}
	if err := validateScan(g); err != nil {
		return nil, err
	}
	return g, nil
}

// validateScan is Validate with every reverse edge found by a scan of its
// endpoint's list.
func validateScan(g *Graph) error {
	n := g.NumVertices()
	if n < 0 {
		return fmt.Errorf("graph: Xadj must have length >= 1")
	}
	if g.Ncon < 1 {
		return fmt.Errorf("graph: Ncon = %d, want >= 1", g.Ncon)
	}
	if len(g.Vwgt) != n*g.Ncon {
		return fmt.Errorf("graph: len(Vwgt) = %d, want n*Ncon = %d", len(g.Vwgt), n*g.Ncon)
	}
	if len(g.Adjwgt) != len(g.Adjncy) {
		return fmt.Errorf("graph: len(Adjwgt) = %d, want len(Adjncy) = %d", len(g.Adjwgt), len(g.Adjncy))
	}
	if g.Xadj[0] != 0 {
		return fmt.Errorf("graph: Xadj[0] = %d, want 0", g.Xadj[0])
	}
	if int(g.Xadj[n]) != len(g.Adjncy) {
		return fmt.Errorf("graph: Xadj[n] = %d, want len(Adjncy) = %d", g.Xadj[n], len(g.Adjncy))
	}
	for v := 0; v < n; v++ {
		if g.Xadj[v+1] < g.Xadj[v] {
			return fmt.Errorf("graph: Xadj not monotone at vertex %d", v)
		}
	}
	for _, w := range g.Vwgt {
		if w < 0 {
			return fmt.Errorf("graph: negative vertex weight %d", w)
		}
	}
	for v := int32(0); int(v) < n; v++ {
		adj, wgt := g.Neighbors(v)
		for i, u := range adj {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if u == v {
				return fmt.Errorf("graph: vertex %d has a self-loop", v)
			}
			// Zero-weight edges are legal: the Type 2 multi-phase workloads
			// of the paper assign edge weight = number of co-active phases,
			// which can be zero while the edge still exists in the mesh.
			if wgt[i] < 0 {
				return fmt.Errorf("graph: edge (%d,%d) has negative weight %d", v, u, wgt[i])
			}
			// The reverse edge is the first v in u's list.
			radj, rwgt := g.Neighbors(u)
			j := slices.Index(radj, v)
			if j < 0 {
				return fmt.Errorf("graph: edge (%d,%d) present but (%d,%d) missing", v, u, u, v)
			} else if rwgt[j] != wgt[i] {
				return fmt.Errorf("graph: edge (%d,%d) weight %d != reverse weight %d", v, u, wgt[i], rwgt[j])
			}
		}
	}
	return nil
}

// readMETISReference is ReadMETISLimited with each vertex line split by
// strings.Fields and each field parsed by strconv.ParseInt.
func readMETISReference(r io.Reader, lim Limits) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)

	header, err := nextDataLineReference(sc)
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	fields := strings.Fields(header)
	if len(fields) < 2 {
		return nil, fmt.Errorf("graph: malformed header %q", header)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("graph: bad vertex count %q", fields[0])
	}
	m, err := strconv.Atoi(fields[1])
	if err != nil || m < 0 {
		return nil, fmt.Errorf("graph: bad edge count %q", fields[1])
	}
	format := "0"
	if len(fields) >= 3 {
		format = fields[2]
	}
	hasVWgt := format == "10" || format == "11"
	hasEWgt := format == "1" || format == "11" || format == "01"
	ncon := 1
	if len(fields) >= 4 {
		ncon, err = strconv.Atoi(fields[3])
		if err != nil || ncon < 1 || ncon > maxNcon {
			return nil, fmt.Errorf("graph: bad ncon %q", fields[3])
		}
	}
	// Vertex ids are int32 and the flattened weight vector is indexed by
	// n*ncon ints; reject headers whose declared sizes cannot be
	// represented before allocating anything proportional to them.
	if n > math.MaxInt32 || int64(n)*int64(ncon) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: declared size n=%d ncon=%d exceeds int32 indexing", n, ncon)
	}
	// Each undirected edge contributes two adjacency entries, so the int32
	// Xadj bound is MaxInt32/2 edges — not MaxInt32, which would let the
	// final prefix sums wrap for m in (MaxInt32/2, MaxInt32].
	if err := checkAdjncyLen(2 * int64(m)); err != nil {
		return nil, err
	}
	if lim.MaxVertices > 0 && n > lim.MaxVertices {
		return nil, fmt.Errorf("graph: %d vertices exceeds the limit of %d", n, lim.MaxVertices)
	}
	if lim.MaxEdges > 0 && m > lim.MaxEdges {
		return nil, fmt.Errorf("graph: %d edges exceeds the limit of %d", m, lim.MaxEdges)
	}

	// Each undirected edge appears on both endpoints' lines. The entries
	// naming a higher-numbered neighbor build the graph; the ones naming a
	// lower-numbered neighbor go to lower, and checkSymmetric matches them
	// against the built graph.
	b := NewBuilder(n, ncon)
	var lower []Edge
	added := 0
	vwgt := make([]int32, ncon)
	for v := 0; v < n; v++ {
		lineStart := len(lower)
		line, err := nextDataLineReference(sc)
		if err != nil {
			return nil, fmt.Errorf("graph: vertex %d: %w", v+1, err)
		}
		toks := strings.Fields(line)
		i := 0
		if hasVWgt {
			if len(toks) < ncon {
				return nil, fmt.Errorf("graph: vertex %d: missing vertex weights", v+1)
			}
			for c := 0; c < ncon; c++ {
				x, err := strconv.ParseInt(toks[i], 10, 32)
				if err != nil {
					return nil, fmt.Errorf("graph: vertex %d: bad vertex weight %q", v+1, toks[i])
				}
				vwgt[c] = int32(x)
				i++
			}
			b.SetVertexWeight(int32(v), vwgt)
		}
		for i < len(toks) {
			u, err := strconv.ParseInt(toks[i], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: vertex %d: bad neighbor %q", v+1, toks[i])
			}
			if u < 1 || u > int64(n) {
				return nil, fmt.Errorf("graph: vertex %d: neighbor %d out of range [1,%d]", v+1, u, n)
			}
			i++
			w := int64(1)
			if hasEWgt {
				if i >= len(toks) {
					return nil, fmt.Errorf("graph: vertex %d: neighbor %d missing edge weight", v+1, u)
				}
				w, err = strconv.ParseInt(toks[i], 10, 32)
				if err != nil {
					return nil, fmt.Errorf("graph: vertex %d: bad edge weight %q", v+1, toks[i])
				}
				// Checked per entry, before duplicates are summed, on
				// either endpoint's line, as the Builder checks its edges.
				if w < 0 {
					return nil, fmt.Errorf("graph: vertex %d: negative weight %d on edge {%d,%d}", v+1, w, min(int64(v)+1, u), max(int64(v)+1, u))
				}
				i++
			}
			switch {
			case int64(v) < u-1:
				added++
				b.AddEdge(int32(v), int32(u-1), int32(w))
			case int64(v) > u-1:
				lower = append(lower, Edge{U: int32(u - 1), V: int32(v), W: int32(w)})
			default:
				return nil, fmt.Errorf("graph: vertex %d lists itself: self-loop {%d,%d}", v+1, v+1, v+1)
			}
			if lim.MaxEdges > 0 && max(added, len(lower)) > 2*lim.MaxEdges {
				return nil, fmt.Errorf("graph: adjacency entries exceed twice the %d-edge limit", lim.MaxEdges)
			}
		}
		if lower, err = mergeLineReference(lower, lineStart); err != nil {
			return nil, err
		}
	}
	g, err := b.Finish()
	if err != nil {
		return nil, err
	}
	if err := checkSymmetricReference(g, lower); err != nil {
		return nil, err
	}
	if g.NumEdges() != m {
		return nil, fmt.Errorf("graph: header declares %d edges, found %d", m, g.NumEdges())
	}
	return g, nil
}

// nextDataLineReference returns the next non-blank, non-comment line.
func nextDataLineReference(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// mergeLineReference sorts the entries one vertex line appended to lower (those
// from index start on) by neighbor and sums the weights of repeated
// neighbors, as the Builder does for the graph's own edges, with the same
// error when a sum does not fit int32.
func mergeLineReference(lower []Edge, start int) ([]Edge, error) {
	line := lower[start:]
	slices.SortFunc(line, func(a, b Edge) int { return cmp.Compare(a.U, b.U) })
	out := start
	for i, e := range line {
		if i > 0 && lower[out-1].U == e.U {
			sum := int64(lower[out-1].W) + int64(e.W)
			if sum > math.MaxInt32 {
				return nil, fmt.Errorf("graph: vertex %d: repeated edge {%d,%d} sums to a weight past the int32 maximum %d", e.V+1, e.U+1, e.V+1, math.MaxInt32)
			}
			lower[out-1].W = int32(sum)
			continue
		}
		lower[out] = e
		out++
	}
	return lower[:out], nil
}

// checkSymmetricReference compares, for every vertex v, the entries v's own line
// gives for lower-numbered neighbors (lower, grouped by v in line order,
// each group sorted and merged by mergeLineReference) with the edges the lower
// endpoints' lines put into g, and names the first vertex pair whose two
// lines disagree.
func checkSymmetricReference(g *Graph, lower []Edge) error {
	j := 0
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		adj, wgt := g.Neighbors(v) // ascending: the lower neighbors come first
		k := 0
		for k < len(adj) && adj[k] < v {
			k++
		}
		end := j
		for end < len(lower) && lower[end].V == v {
			end++
		}
		mine := lower[j:end]
		j = end
		for i := 0; i < max(k, len(mine)); i++ {
			switch {
			case i == len(mine) || i < k && adj[i] < mine[i].U:
				return fmt.Errorf("graph: vertex %d lists neighbor %d, but vertex %d does not list %d", adj[i]+1, v+1, v+1, adj[i]+1)
			case i == k || mine[i].U < adj[i]:
				u := mine[i].U
				return fmt.Errorf("graph: vertex %d lists neighbor %d, but vertex %d does not list %d", v+1, u+1, u+1, v+1)
			case wgt[i] != mine[i].W:
				return fmt.Errorf("graph: edge {%d,%d} has weight %d on vertex %d's line and %d on vertex %d's", adj[i]+1, v+1, wgt[i], adj[i]+1, mine[i].W, v+1)
			}
		}
	}
	return nil
}
