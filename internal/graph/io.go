package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
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
// w receives the text in writes of 1 MiB, the last one shorter.
func WriteMETIS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := EncodeMETIS(bw, g, make([]byte, 0, 64<<10)); err != nil {
		return err
	}
	return bw.Flush()
}

// EncodeMETIS writes WriteMETIS's text of g to w in one formatting pass:
// each line is formatted straight into buf's spare capacity, and w gets
// the text each time buf is half full. A w that takes any write, such as
// a hash, so sees the text without a copy between buffers.
func EncodeMETIS(w io.Writer, g *Graph, buf []byte) error {
	flush := max(cap(buf)/2, 1)
	buf = appendDec(buf[:0], int64(g.NumVertices()))
	buf = append(buf, ' ')
	buf = appendDec(buf, int64(g.NumEdges()))
	buf = append(buf, " 11"...)
	if g.Ncon > 1 {
		buf = append(buf, ' ')
		buf = appendDec(buf, int64(g.Ncon))
	}
	buf = append(buf, '\n')
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		for _, x := range g.VertexWeight(v) {
			buf = append(appendDec(buf, int64(x)), ' ')
		}
		adj, wgt := g.Neighbors(v)
		for i, u := range adj {
			buf = append(appendDec(buf, int64(u)+1), ' ')
			buf = append(appendDec(buf, int64(wgt[i])), ' ')
		}
		buf = append(buf, '\n')
		if len(buf) >= flush {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendDec appends x in decimal, as strconv.AppendInt(b, x, 10) does. A
// value in [0, 10^9) has its length found first and its digits written in
// place, two at a time, where strconv formats into a buffer of its own and
// copies.
func appendDec(b []byte, x int64) []byte {
	if x < 0 || x >= 1e9 {
		return strconv.AppendInt(b, x, 10)
	}
	u := uint32(x)
	if u < 10 {
		return append(b, byte('0'+u))
	}
	// 1233/4096 is just above log10(2), so t is the digit count or one
	// less, and pow10 tells which.
	t := bits.Len32(u) * 1233 >> 12
	n := t + 1
	if u < pow10[t] {
		n--
	}
	b = slices.Grow(b, n)
	i := len(b) + n
	b = b[:i]
	for u >= 100 {
		q := u / 100
		r := 2 * (u - 100*q)
		i -= 2
		b[i], b[i+1] = decPairs[r], decPairs[r+1]
		u = q
	}
	if u >= 10 {
		b[i-2], b[i-1] = decPairs[2*u], decPairs[2*u+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return b
}

// pow10 holds the powers of ten that fit uint32.
var pow10 = [...]uint32{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// decPairs holds the two digits of 00 to 99.
const decPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

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

// maxLine is the longest line, with its end, the reader's bufio.Scanner
// holds; a longer line fails with bufio.ErrTooLong on either entry.
const maxLine = 1 << 26

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
	sc.Buffer(make([]byte, 64<<10), maxLine)
	return readMETIS(func() ([]byte, error) { return nextDataLine(sc) }, remaining, lim)
}

// ReadMETISBytes is ReadMETISLimited for text already in memory, such as
// the inline graph of a request body: the lines are split in place, with
// no scanner buffer, and the same texts give the same graphs and errors.
func ReadMETISBytes(text []byte, lim Limits) (*Graph, error) {
	lines := byteLines{rest: text}
	return readMETIS(lines.next, len(text), lim)
}

// readMETIS is the one METIS parser behind both entries: next yields the
// data lines, and remaining is the input's length in bytes, or -1 when
// it is unknown.
func readMETIS(next func() ([]byte, error), remaining int, lim Limits) (*Graph, error) {
	line, err := next()
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	r, err := newMETISBuild(line, remaining, lim)
	if err != nil {
		return nil, err
	}
	for v := 0; v < r.n; v++ {
		line, err := next()
		if err != nil {
			return nil, fmt.Errorf("graph: vertex %d: %w", v+1, err)
		}
		if err := r.vertex(v, line); err != nil {
			return nil, err
		}
	}
	return r.finish()
}

// metisBuild builds the CSR of a METIS text one vertex line at a time:
// each line's entries, sorted by neighbor and with repeats merged, become
// the vertex's adjacency list, and finish then checks in one pass that
// every edge is listed on both of its endpoints' lines with one weight.
type metisBuild struct {
	n, m, ncon       int
	hasVWgt, hasEWgt bool
	lim              Limits

	xadj, adjncy, adjwgt, vwgt []int32
	// upper[v] is the index of v's first entry naming a higher neighbor,
	// which checkSymmetric then moves along as the cursor of v's entries
	// matched so far.
	upper   []int32
	scratch []uint64 // sortList's keys for a line longer than insertionMax

	// added counts the entries naming a higher neighbor as parsed, before
	// repeats are merged, and lowers the merged entries naming a lower one:
	// the edge lists of the Builder-based reader this one replaced, which
	// the entry limit and checkAdjncyLen still bound.
	added, lowers int
	// overflow is the first repeated higher-neighbor entry whose summed
	// weight passes int32. It is reported once every line has parsed,
	// after any error those lines give, as Builder.Finish reports it.
	overflow error
}

// newMETISBuild parses the header line and sizes the build from it.
func newMETISBuild(line []byte, remaining int, lim Limits) (*metisBuild, error) {
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

	r := &metisBuild{
		n: n, m: m, ncon: ncon, lim: lim,
		hasVWgt: format == "10" || format == "11",
		hasEWgt: format == "1" || format == "11" || format == "01",
		xadj:    make([]int32, n+1),
		vwgt:    make([]int32, n*ncon),
		upper:   make([]int32, n),
	}
	if !r.hasVWgt {
		for i := range r.vwgt {
			r.vwgt[i] = 1
		}
	}
	// Every edge costs at least four bytes over its two lines (a neighbor
	// digit and a separator on each), so a header that overstates m
	// reserves no more than the input can hold. Without a known length
	// the lists grow as entries are parsed.
	reserve := 0
	if remaining >= 0 {
		reserve = min(2*m, remaining/2)
	}
	r.adjncy = make([]int32, 0, reserve)
	r.adjwgt = make([]int32, 0, reserve)
	return r, nil
}

// vertex parses vertex v's line and appends its adjacency list.
func (r *metisBuild) vertex(v int, line []byte) error {
	start := len(r.adjncy)
	if !r.vertexPlain(v, line) {
		r.adjncy, r.adjwgt = r.adjncy[:start], r.adjwgt[:start]
		if err := r.vertexFields(v, line); err != nil {
			return err
		}
	}
	return r.mergeLine(int32(v), start)
}

// vertexPlain parses a line of plain fields, as WriteMETIS writes them:
// after any spaces, one to nine decimal digits that end the line or are
// followed by a space. It reads the fields in one loop, with no call per
// field, and reports false for any other line and for one vertexFields
// would refuse. Its effects then are appended entries, which the caller
// drops, and vertex weights, which vertexFields sets again.
func (r *metisBuild) vertexPlain(v int, b []byte) bool {
	nv := 0
	if r.hasVWgt {
		nv = r.ncon
	}
	vw := r.vwgt[v*r.ncon : v*r.ncon+nv]
	added, lowers := r.added, r.lowers
	k, u := 0, int64(0) // the fields read, and the neighbor whose weight is due
	for i := 0; ; k++ {
		for i < len(b) && b[i] == ' ' {
			i++
		}
		if i == len(b) {
			break
		}
		j, x := i, int64(0)
		if c := b[i] - '0'; c < 10 && i+1 < len(b) && b[i+1] == ' ' {
			j, x = i+1, int64(c) // one digit, as most weights are
		} else if len(b)-i > 8 {
			// Eight bytes at once: the first non-digit is the lowest byte
			// below '0' (its high bit set after subtracting '0') or above
			// '9' (its high bit set after adding 0x46, or already set). One
			// to seven digits followed by a space are then converted by
			// summing adjacent digits, then pairs of those, then halves.
			w := binary.LittleEndian.Uint64(b[i:])
			d := w - 0x3030303030303030
			n := bits.TrailingZeros64((d|(w+0x4646464646464646))&0x8080808080808080) / 8
			if n > 0 && n < 8 && b[i+n] == ' ' {
				d <<= 64 - 8*n
				d = (d*10 + d>>8) & 0x00FF00FF00FF00FF
				d = (d*100 + d>>16) & 0x0000FFFF0000FFFF
				d = (d*10000 + d>>32) & 0xFFFFFFFF
				j, x = i+n, int64(d)
			}
		}
		if j == i {
			for j < len(b) && b[j]-'0' < 10 {
				x = x*10 + int64(b[j]-'0')
				j++
			}
			if j == i || j-i > 9 || j < len(b) && b[j] != ' ' {
				return false
			}
		}
		i = j
		switch {
		case k < nv:
			vw[k] = int32(x)
			continue
		case r.hasEWgt && (k-nv)&1 == 0:
			u = x
			continue
		case !r.hasEWgt:
			u, x = x, 1
		}
		if u < 1 || u > int64(r.n) {
			return false
		}
		switch {
		case int64(v) < u-1:
			added++
		case int64(v) > u-1:
			lowers++
		default:
			return false
		}
		if r.lim.MaxEdges > 0 && max(added, lowers) > 2*r.lim.MaxEdges {
			return false
		}
		r.adjncy = append(r.adjncy, int32(u-1))
		r.adjwgt = append(r.adjwgt, int32(x))
	}
	if k < nv || r.hasEWgt && (k-nv)&1 == 1 {
		return false
	}
	r.added = added
	return true
}

// vertexFields parses vertex v's line field by field with fieldReader,
// which reads any field and names the first one a line gets wrong.
func (r *metisBuild) vertexFields(v int, line []byte) error {
	f := fieldReader{line: line}
	if r.hasVWgt {
		vw := r.vwgt[v*r.ncon : (v+1)*r.ncon]
		for c := range vw {
			x, st := f.next()
			if st == fieldBad {
				// A line with fewer than ncon fields is reported as
				// such, even when one of its fields is bad.
				tok := f.text()
				if c+1+f.rest() >= r.ncon {
					return fmt.Errorf("graph: vertex %d: bad vertex weight %q", v+1, tok)
				}
			}
			if st != fieldOK {
				return fmt.Errorf("graph: vertex %d: missing vertex weights", v+1)
			}
			vw[c] = int32(x)
		}
	}
	lowers := 0
	for {
		u, st := f.next()
		if st == fieldEnd {
			break
		}
		if st == fieldBad {
			return fmt.Errorf("graph: vertex %d: bad neighbor %q", v+1, f.text())
		}
		if u < 1 || u > int64(r.n) {
			return fmt.Errorf("graph: vertex %d: neighbor %d out of range [1,%d]", v+1, u, r.n)
		}
		w := int64(1)
		if r.hasEWgt {
			w, st = f.next()
			switch st {
			case fieldEnd:
				return fmt.Errorf("graph: vertex %d: neighbor %d missing edge weight", v+1, u)
			case fieldBad:
				return fmt.Errorf("graph: vertex %d: bad edge weight %q", v+1, f.text())
			}
			// Checked per entry, before duplicates are summed, on
			// either endpoint's line, as the Builder checks its edges.
			if w < 0 {
				return fmt.Errorf("graph: vertex %d: negative weight %d on edge {%d,%d}", v+1, w, min(int64(v)+1, u), max(int64(v)+1, u))
			}
		}
		switch {
		case int64(v) < u-1:
			r.added++
		case int64(v) > u-1:
			lowers++
		default:
			return fmt.Errorf("graph: vertex %d lists itself: self-loop {%d,%d}", v+1, v+1, v+1)
		}
		if r.lim.MaxEdges > 0 && max(r.added, r.lowers+lowers) > 2*r.lim.MaxEdges {
			return fmt.Errorf("graph: adjacency entries exceed twice the %d-edge limit", r.lim.MaxEdges)
		}
		r.adjncy = append(r.adjncy, int32(u-1))
		r.adjwgt = append(r.adjwgt, int32(w))
	}
	return nil
}

// mergeLine sorts the entries vertex v's line appended (those from index
// start on) by neighbor and sums the weights of repeated neighbors. A sum
// past int32 is an error with the text the Builder-based reader gave: at
// once for a lower neighbor, after every line for a higher one.
func (r *metisBuild) mergeLine(v int32, start int) error {
	adj, wgt := r.adjncy[start:], r.adjwgt[start:]
	if len(adj) > insertionMax && len(adj) > cap(r.scratch) {
		r.scratch = make([]uint64, len(adj))
	}
	sortList(adj, wgt, r.scratch)
	out, upper := 0, -1
	for i, u := range adj {
		if out > 0 && adj[out-1] == u {
			sum := int64(wgt[out-1]) + int64(wgt[i])
			if sum > math.MaxInt32 {
				if u < v {
					return fmt.Errorf("graph: vertex %d: repeated edge {%d,%d} sums to a weight past the int32 maximum %d", v+1, u+1, v+1, math.MaxInt32)
				}
				if r.overflow == nil {
					r.overflow = fmt.Errorf("graph: repeated edge (%d,%d) sums to a weight past the int32 maximum %d", v, u, math.MaxInt32)
				}
			}
			wgt[out-1] = int32(sum) // wraps only in a graph that is refused
			continue
		}
		if u > v && upper < 0 {
			upper = out
		}
		adj[out], wgt[out] = u, wgt[i]
		out++
	}
	if upper < 0 {
		upper = out
	}
	r.lowers += upper
	end := start + out
	if err := checkAdjncyLen(int64(end)); err != nil {
		return err
	}
	r.adjncy, r.adjwgt = r.adjncy[:end], r.adjwgt[:end]
	r.upper[v] = int32(start + upper)
	r.xadj[v+1] = int32(end)
	return nil
}

// finish checks the built lists and returns the graph. Its errors come in
// the order the Builder-based reader gave them: the entry count, a summed
// weight past int32, a negative vertex weight, two lines that disagree on
// an edge, and last the header's edge count.
func (r *metisBuild) finish() (*Graph, error) {
	if err := checkAdjncyLen(2 * int64(r.added)); err != nil {
		return nil, err
	}
	if r.overflow != nil {
		return nil, r.overflow
	}
	for _, w := range r.vwgt {
		if w < 0 {
			return nil, fmt.Errorf("graph: negative vertex weight %d", w)
		}
	}
	if err := r.checkSymmetric(); err != nil {
		return nil, err
	}
	if len(r.adjncy)/2 != r.m {
		return nil, fmt.Errorf("graph: header declares %d edges, found %d", r.m, len(r.adjncy)/2)
	}
	return &Graph{Ncon: r.ncon, Xadj: r.xadj, Adjncy: slices.Clip(r.adjncy), Adjwgt: slices.Clip(r.adjwgt), Vwgt: r.vwgt}, nil
}

// checkSymmetric matches, for every vertex v in ascending order, the
// entries v's line gives for lower neighbors against the entries the
// lower neighbors' lines give for v, in one pass over the lists: upper[u]
// is the cursor of u's first entry for a higher neighbor not yet matched,
// so while the lines agree it names v when v is reached. On the first
// mismatch it names the first vertex pair whose lines disagree.
func (r *metisBuild) checkSymmetric() error {
	xadj, adjncy, adjwgt, cursor := r.xadj, r.adjncy, r.adjwgt, r.upper
	n := int32(r.n)
	for v := int32(0); v < n; v++ {
		// cursor[v] is still v's first higher-neighbor entry: only the
		// higher vertices, not yet visited, move it.
		for i := xadj[v]; i < cursor[v]; i++ {
			u := adjncy[i]
			c := cursor[u]
			if c == xadj[u+1] || adjncy[c] != v || adjwgt[c] != adjwgt[i] {
				return r.asymmetry(r.firstStale(v))
			}
			cursor[u] = c + 1
		}
	}
	if t := r.firstStale(n); t < n {
		return r.asymmetry(t)
	}
	return nil
}

// firstStale returns the first vertex below limit that some lower
// neighbor's line lists but whose own line was visited without matching
// it (a cursor left behind), or limit when there is none. When the pass
// stops at vertex limit, the first pair that disagrees is at this vertex:
// below the first such vertex every cursor was matched in order.
func (r *metisBuild) firstStale(limit int32) int32 {
	t := limit
	for u := int32(0); int(u) < r.n; u++ {
		if c := r.upper[u]; c < r.xadj[u+1] && r.adjncy[c] < t {
			t = r.adjncy[c]
		}
	}
	return t
}

// asymmetry compares vertex v's entries for lower neighbors with the
// entries the lower neighbors' lines give for v, and names the first pair
// that differs, with the texts of the Builder-based reader.
func (r *metisBuild) asymmetry(v int32) error {
	var adj, wgt []int32 // the lower neighbors that list v, ascending
	for u := int32(0); u < v; u++ {
		list := r.adjncy[r.xadj[u]:r.xadj[u+1]]
		if k, ok := slices.BinarySearch(list, v); ok {
			adj = append(adj, u)
			wgt = append(wgt, r.adjwgt[int(r.xadj[u])+k])
		}
	}
	list := r.adjncy[r.xadj[v]:r.xadj[v+1]]
	k, _ := slices.BinarySearch(list, v)
	mine, mineW := list[:k], r.adjwgt[r.xadj[v]:int(r.xadj[v])+k]
	for i := 0; i < max(len(adj), len(mine)); i++ {
		switch {
		case i == len(mine) || i < len(adj) && adj[i] < mine[i]:
			return fmt.Errorf("graph: vertex %d lists neighbor %d, but vertex %d does not list %d", adj[i]+1, v+1, v+1, adj[i]+1)
		case i == len(adj) || mine[i] < adj[i]:
			u := mine[i]
			return fmt.Errorf("graph: vertex %d lists neighbor %d, but vertex %d does not list %d", v+1, u+1, u+1, v+1)
		case wgt[i] != mineW[i]:
			return fmt.Errorf("graph: edge {%d,%d} has weight %d on vertex %d's line and %d on vertex %d's", adj[i]+1, v+1, wgt[i], adj[i]+1, mineW[i], v+1)
		}
	}
	return fmt.Errorf("graph: vertex %d: its lines disagree on an edge", v+1)
}

// byteLines yields the data lines of text in memory as nextDataLine
// yields them from a bufio.Scanner: split at each newline, trimmed of
// white space, with blank lines and comments skipped.
type byteLines struct{ rest []byte }

func (l *byteLines) next() ([]byte, error) {
	for len(l.rest) > 0 {
		line := l.rest
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line, l.rest = line[:i], line[i+1:]
		} else {
			l.rest = nil
		}
		if len(line) >= maxLine {
			return nil, bufio.ErrTooLong
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		return line, nil
	}
	return nil, io.ErrUnexpectedEOF
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
