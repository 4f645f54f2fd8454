package graph

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
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
	// An in-memory reader reports what is left of the input, which bounds
	// the edges it can still hold.
	remaining := -1
	if l, ok := r.(interface{ Len() int }); ok {
		remaining = l.Len()
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<26)

	line, err := nextDataLine(sc)
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	header := string(line)
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
	// Every edge costs at least four bytes over its two lines (a neighbor
	// digit and a separator on each), so a header that overstates m
	// reserves no more than the input can hold. Without a known length
	// the lists grow as entries are parsed.
	if remaining >= 0 {
		reserve := min(m, remaining/4)
		b.Grow(reserve)
		lower = make([]Edge, 0, reserve)
	}
	added := 0
	vwgt := make([]int32, ncon)
	for v := 0; v < n; v++ {
		lineStart := len(lower)
		line, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("graph: vertex %d: %w", v+1, err)
		}
		f := fieldReader{line: line}
		if hasVWgt {
			for c := 0; c < ncon; c++ {
				x, st := f.next()
				if st == fieldBad {
					// A line with fewer than ncon fields is reported as
					// such, even when one of its fields is bad.
					tok := f.text()
					if c+1+f.rest() >= ncon {
						return nil, fmt.Errorf("graph: vertex %d: bad vertex weight %q", v+1, tok)
					}
				}
				if st != fieldOK {
					return nil, fmt.Errorf("graph: vertex %d: missing vertex weights", v+1)
				}
				vwgt[c] = int32(x)
			}
			b.SetVertexWeight(int32(v), vwgt)
		}
		for {
			u, st := f.next()
			if st == fieldEnd {
				break
			}
			if st == fieldBad {
				return nil, fmt.Errorf("graph: vertex %d: bad neighbor %q", v+1, f.text())
			}
			if u < 1 || u > int64(n) {
				return nil, fmt.Errorf("graph: vertex %d: neighbor %d out of range [1,%d]", v+1, u, n)
			}
			w := int64(1)
			if hasEWgt {
				w, st = f.next()
				switch st {
				case fieldEnd:
					return nil, fmt.Errorf("graph: vertex %d: neighbor %d missing edge weight", v+1, u)
				case fieldBad:
					return nil, fmt.Errorf("graph: vertex %d: bad edge weight %q", v+1, f.text())
				}
				// Checked per entry, before duplicates are summed, on
				// either endpoint's line, as the Builder checks its edges.
				if w < 0 {
					return nil, fmt.Errorf("graph: vertex %d: negative weight %d on edge {%d,%d}", v+1, w, min(int64(v)+1, u), max(int64(v)+1, u))
				}
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
		if lower, err = mergeLine(lower, lineStart); err != nil {
			return nil, err
		}
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
// neighbors, as the Builder does for the graph's own edges, with the same
// error when a sum does not fit int32.
func mergeLine(lower []Edge, start int) ([]Edge, error) {
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

// nextDataLine returns the next line that is neither blank nor a comment,
// trimmed of white space. The line is valid until the next call.
func nextDataLine(sc *bufio.Scanner) ([]byte, error) {
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

// fieldStatus is what fieldReader.next found.
type fieldStatus uint8

const (
	fieldEnd fieldStatus = iota // the line has no more fields
	fieldOK                     // the field is a decimal int32
	fieldBad                    // the field is something else
)

// fieldReader yields the white-space-separated fields of one vertex line,
// the ones strings.Fields would give, and parses each as it scans it with
// the rules of strconv.ParseInt(field, 10, 32): an optional sign, then
// decimal digits only, within the int32 range. A byte >= 0x80 may start
// a Unicode space, so from the field where the first one appears, the
// rest of the line is split by strings.Fields and parsed by
// strconv.ParseInt.
type fieldReader struct {
	line       []byte
	start, pos int // the last field read is line[start:pos]

	unicode bool     // the rest of the line was split by strings.Fields
	fields  []string // those fields not yet read
	field   string   // the last of them read
}

// asciiSpace reports whether c is one of the ASCII bytes unicode.IsSpace
// accepts.
func asciiSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// next reads the next field.
func (f *fieldReader) next() (int64, fieldStatus) {
	if f.unicode {
		if len(f.fields) == 0 {
			return 0, fieldEnd
		}
		f.field, f.fields = f.fields[0], f.fields[1:]
		x, err := strconv.ParseInt(f.field, 10, 32)
		if err != nil {
			return 0, fieldBad
		}
		return x, fieldOK
	}
	b, i := f.line, f.pos
	for i < len(b) && asciiSpace(b[i]) {
		i++
	}
	if i == len(b) {
		f.pos = i
		return 0, fieldEnd
	}
	f.start = i
	neg := b[i] == '-'
	if neg || b[i] == '+' {
		i++
	}
	digits := i
	var x int64
	// Past 1<<31 the field is out of range whatever follows; stopping
	// there keeps x from overflowing on a long run of digits.
	for i < len(b) && b[i]-'0' < 10 && x <= 1<<31 {
		x = x*10 + int64(b[i]-'0')
		i++
	}
	if i < len(b) && !asciiSpace(b[i]) {
		for ; i < len(b) && !asciiSpace(b[i]); i++ {
			if b[i] >= utf8.RuneSelf {
				f.unicode, f.fields = true, strings.Fields(string(b[f.start:]))
				return f.next()
			}
		}
		f.pos = i
		return 0, fieldBad
	}
	f.pos = i
	if i == digits || x > math.MaxInt32+1 || !neg && x > math.MaxInt32 {
		return 0, fieldBad
	}
	if neg {
		x = -x
	}
	return x, fieldOK
}

// text returns the last field next read, for error messages.
func (f *fieldReader) text() string {
	if f.unicode {
		return f.field
	}
	return string(f.line[f.start:f.pos])
}

// rest reads the remaining fields and returns how many there were.
func (f *fieldReader) rest() int {
	k := 0
	for _, st := f.next(); st != fieldEnd; _, st = f.next() {
		k++
	}
	return k
}
