package graph

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// WriteMETIS writes g in the METIS 4.0 graph file format: a header line
// "n m fmt ncon" followed by one line per vertex listing its ncon vertex
// weights and then (neighbor, edgeweight) pairs, all 1-based. The fmt field
// is always "11" (has vertex weights and edge weights), with ncon appended
// when Ncon > 1, matching what the mrng experiment inputs would look like.
func WriteMETIS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	n := g.NumVertices()
	line := strconv.AppendInt(nil, int64(n), 10)
	line = append(line, ' ')
	line = strconv.AppendInt(line, int64(g.NumEdges()), 10)
	line = append(line, " 11"...)
	if g.Ncon > 1 {
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(g.Ncon), 10)
	}
	line = append(line, '\n')
	if _, err := bw.Write(line); err != nil {
		return err
	}
	for v := int32(0); int(v) < n; v++ {
		line = line[:0]
		for _, x := range g.VertexWeight(v) {
			line = strconv.AppendInt(line, int64(x), 10)
			line = append(line, ' ')
		}
		adj, wgt := g.Neighbors(v)
		for i, u := range adj {
			line = strconv.AppendInt(line, int64(u)+1, 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(wgt[i]), 10)
			line = append(line, ' ')
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Limits bounds what ReadMETISLimited will accept from an untrusted
// input. Zero fields mean "no limit beyond the structural maxima" (vertex
// ids must fit int32 and n*ncon must be addressable).
type Limits struct {
	// MaxVertices rejects graphs whose header declares more vertices.
	MaxVertices int
	// MaxEdges rejects graphs whose header declares more undirected edges,
	// and also caps the number of adjacency entries actually parsed (so a
	// lying header cannot make memory grow past ~2x the declared size).
	MaxEdges int
}

// maxNcon bounds the per-vertex constraint count a file may declare. The
// paper's workloads use m <= 5; three orders of magnitude of headroom
// keeps the bound irrelevant for real inputs while stopping a hostile
// header from driving the n*ncon weight allocation on its own.
const maxNcon = 1024

// ReadMETIS parses a graph in the METIS 4.0 file format as produced by
// WriteMETIS. It accepts fmt codes 0 (no weights), 1 (edge weights),
// 10 (vertex weights), and 11 (both); missing weights default to 1.
func ReadMETIS(r io.Reader) (*Graph, error) {
	return ReadMETISLimited(r, Limits{})
}

// ReadMETISLimited is ReadMETIS for untrusted input: malformed or hostile
// bytes produce an error, never a panic, and lim caps the declared graph
// size before any size-proportional allocation happens. Servers parsing
// client-supplied graphs should use this entry point.
func ReadMETISLimited(r io.Reader, lim Limits) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)

	header, err := nextDataLine(sc)
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
		line, err := nextDataLine(sc)
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
		lower = mergeLine(lower, lineStart)
	}
	g, err := b.Finish()
	if err != nil {
		return nil, err
	}
	if err := checkSymmetric(g, lower); err != nil {
		return nil, err
	}
	if g.NumEdges() != m {
		return nil, fmt.Errorf("graph: header declares %d edges, found %d", m, g.NumEdges())
	}
	return g, nil
}

// mergeLine sorts the entries one vertex line appended to lower (those
// from index start on) by neighbor and sums the weights of repeated
// neighbors, as the Builder does for the graph's own edges.
func mergeLine(lower []Edge, start int) []Edge {
	line := lower[start:]
	slices.SortFunc(line, func(a, b Edge) int { return cmp.Compare(a.U, b.U) })
	out := start
	for i, e := range line {
		if i > 0 && lower[out-1].U == e.U {
			lower[out-1].W += e.W
			continue
		}
		lower[out] = e
		out++
	}
	return lower[:out]
}

// checkSymmetric compares, for every vertex v, the entries v's own line
// gives for lower-numbered neighbors (lower, grouped by v in line order,
// each group sorted and merged by mergeLine) with the edges the lower
// endpoints' lines put into g, and names the first vertex pair whose two
// lines disagree.
func checkSymmetric(g *Graph, lower []Edge) error {
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

// nextDataLine returns the next non-blank, non-comment line.
func nextDataLine(sc *bufio.Scanner) (string, error) {
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
