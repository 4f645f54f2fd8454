// Package arena provides typed scratch-slice pools for the partitioner's
// hot paths. The multilevel pipeline repeats the same shapes of temporary
// work — per-level contraction scratch, per-trial bisection state, per-node
// subgraph CSR arrays — thousands of times per partitioning; allocating
// them fresh each time makes the initial-partitioning phase
// allocation-bound (see DESIGN.md, "Memory discipline & parallel trials").
// An Arena instead carves slices out of grow-only slabs and recycles the
// memory with Reset (drop everything) or Mark/Release (stack discipline for
// recursive callers).
//
// Rules:
//
//   - An Arena is single-goroutine. Concurrent users (e.g. bisection trial
//     workers) each own a private Arena.
//   - Slices returned by I32/I64/F64/Bool are NOT zeroed — they may hold
//     bytes from released allocations. Callers either overwrite every
//     element or use the *Zero variants. Nothing here is ever secret; the
//     hazard is nondeterminism, and reading an element before writing it is
//     a bug.
//   - Release(mark) and Reset invalidate every slice carved since the mark
//     (resp. ever): the memory will be handed out again. Holding such a
//     slice is the arena equivalent of use-after-free.
package arena

// Arena is a set of per-type grow-only slabs. The zero value is ready to
// use; New is provided for symmetry with the rest of the codebase.
type Arena struct {
	i32 slab[int32]
	i64 slab[int64]
	f64 slab[float64]
	bl  slab[bool]
}

// New returns an empty arena.
func New() *Arena { return &Arena{} }

// Mark is a snapshot of the arena's allocation cursors; see Arena.Mark.
type Mark struct {
	i32, i64, f64, bl int
}

// Mark snapshots the current allocation state. Pass it to Release to free
// everything carved after this point — the idiom for recursive callers:
//
//	m := a.Mark()
//	defer a.Release(m)
func (a *Arena) Mark() Mark {
	return Mark{i32: a.i32.off, i64: a.i64.off, f64: a.f64.off, bl: a.bl.off}
}

// Release frees every allocation made since the mark was taken. Slices
// carved in between must no longer be used.
func (a *Arena) Release(m Mark) {
	a.i32.off = m.i32
	a.i64.off = m.i64
	a.f64.off = m.f64
	a.bl.off = m.bl
}

// Reset frees every allocation. Equivalent to Release of a mark taken on a
// fresh arena.
func (a *Arena) Reset() { a.Release(Mark{}) }

// I32 carves an uninitialized []int32 of length n.
func (a *Arena) I32(n int) []int32 { return a.i32.alloc(n) }

// I32Zero carves a zeroed []int32 of length n.
func (a *Arena) I32Zero(n int) []int32 { s := a.i32.alloc(n); clear(s); return s }

// I64 carves an uninitialized []int64 of length n.
func (a *Arena) I64(n int) []int64 { return a.i64.alloc(n) }

// I64Zero carves a zeroed []int64 of length n.
func (a *Arena) I64Zero(n int) []int64 { s := a.i64.alloc(n); clear(s); return s }

// F64 carves an uninitialized []float64 of length n.
func (a *Arena) F64(n int) []float64 { return a.f64.alloc(n) }

// F64Zero carves a zeroed []float64 of length n.
func (a *Arena) F64Zero(n int) []float64 { s := a.f64.alloc(n); clear(s); return s }

// Bool carves an uninitialized []bool of length n.
func (a *Arena) Bool(n int) []bool { return a.bl.alloc(n) }

// BoolZero carves a zeroed []bool of length n.
func (a *Arena) BoolZero(n int) []bool { s := a.bl.alloc(n); clear(s); return s }

// ReserveI32 makes the next carves of n int32s in all fit the slab without
// growth. A caller that knows its working set up front grows a cold slab
// once, to the exact size, where carving slice by slice would grow it by
// doublings and keep every outgrown buffer alive through the slices
// already carved from it.
func (a *Arena) ReserveI32(n int) { a.i32.reserve(n) }

// ReserveBool is ReserveI32 for the bool slab.
func (a *Arena) ReserveBool(n int) { a.bl.reserve(n) }

// Marker is a timestamped dense marker set over [0, n): starting a new
// generation is O(1) (a stamp bump), membership tests and insertions are
// O(1) array operations, and — unlike a plain []int32 stamped with caller
// ids — no generation ever needs the array cleared, so a Marker pooled
// across a whole coarsening hierarchy does zero per-level reset work. The
// stamps are int64: they never wrap within any realistic run, so there is
// no epoch-recycling hazard. Like the Arena, a Marker is single-goroutine.
type Marker struct {
	stamp []int64
	cur   int64
}

// Grow ensures the marker covers indices [0, n). Marks of the current
// generation are preserved.
func (m *Marker) Grow(n int) {
	if n <= len(m.stamp) {
		return
	}
	grown := make([]int64, n)
	copy(grown, m.stamp)
	m.stamp = grown
}

// Next starts a new, empty generation. It must be called at least once
// before the first TryMark (the zero generation matches the zero stamps of
// a fresh array, so everything would appear marked).
func (m *Marker) Next() { m.cur++ }

// TryMark marks i in the current generation, reporting whether it was
// unmarked before (true exactly once per index per generation).
func (m *Marker) TryMark(i int32) bool {
	if m.stamp[i] == m.cur {
		return false
	}
	m.stamp[i] = m.cur
	return true
}

// Marked reports whether i is marked in the current generation.
func (m *Marker) Marked(i int32) bool { return m.stamp[i] == m.cur }

// SlotMarker is a Marker that stores an int32 slot with each mark, packed
// with the generation into one word (generation<<32 | slot): a scan that
// looks up or records an index's slot does one load and at most one store,
// where a Marker beside a slot array costs two of each. The generation is
// 32 bits, so the array is cleared once every 2^32-1 generations, when it
// wraps. Single-goroutine, like the Marker.
type SlotMarker struct {
	word []uint64
	cur  uint64 // current generation, shifted into the high 32 bits
}

// Grow ensures the marker covers indices [0, n). Marks of the current
// generation are preserved.
func (m *SlotMarker) Grow(n int) {
	if n <= len(m.word) {
		return
	}
	grown := make([]uint64, n)
	copy(grown, m.word)
	m.word = grown
}

// Next starts a new, empty generation. It must be called at least once
// before the first Set (generation zero matches the zero words of a fresh
// array).
func (m *SlotMarker) Next() {
	m.cur += 1 << 32
	if m.cur == 0 {
		clear(m.word)
		m.cur = 1 << 32
	}
}

// Slot returns the slot i was marked with in the current generation, or -1
// when i is unmarked.
func (m *SlotMarker) Slot(i int32) int32 {
	if w := m.word[i]; w&^(1<<32-1) == m.cur {
		return int32(uint32(w))
	}
	return -1
}

// Set marks i in the current generation with slot s (s >= 0).
func (m *SlotMarker) Set(i, s int32) { m.word[i] = m.cur | uint64(uint32(s)) }

// slab is one grow-only backing store. Growth swaps in a larger buffer
// without copying: outstanding slices keep aliasing the old buffer (which
// stays alive through them), and the region below the current offset in the
// new buffer is left unused so Mark/Release offsets stay meaningful. After
// a few calls the slab stabilizes at the peak working-set size and
// allocation stops entirely.
type slab[T any] struct {
	buf []T
	off int
}

const minSlab = 256

func (s *slab[T]) reserve(n int) {
	if s.off+n > len(s.buf) {
		s.buf = make([]T, s.off+n)
	}
}

func (s *slab[T]) alloc(n int) []T {
	if n < 0 {
		panic("arena: negative allocation size")
	}
	if s.off+n > len(s.buf) {
		grown := 2 * len(s.buf)
		if grown < s.off+n {
			grown = s.off + n
		}
		if grown < minSlab {
			grown = minSlab
		}
		s.buf = make([]T, grown)
	}
	out := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	return out
}
