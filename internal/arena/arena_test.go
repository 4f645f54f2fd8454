package arena

import "testing"

func TestZeroVariantsClearRecycledMemory(t *testing.T) {
	a := New()
	s := a.I32(8)
	for i := range s {
		s[i] = 0x5a5a
	}
	b := a.BoolZero(4)
	_ = b
	a.Reset()
	z := a.I32Zero(8)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("I32Zero[%d] = %d after recycle, want 0", i, v)
		}
	}
}

func TestMarkReleaseStackDiscipline(t *testing.T) {
	a := New()
	outer := a.I32(4)
	outer[0] = 11
	m := a.Mark()
	inner := a.I64(16)
	inner[0] = 22
	f := a.F64(3)
	f[0] = 3.5
	a.Release(m)
	// Allocations made before the mark survive the release.
	if outer[0] != 11 {
		t.Fatalf("outer slice clobbered by Release: %d", outer[0])
	}
	// The released region is handed out again.
	reused := a.I64(16)
	if &reused[0] != &inner[0] {
		t.Fatalf("Release did not recycle the i64 region")
	}
}

func TestGrowthPreservesOutstandingSlices(t *testing.T) {
	a := New()
	first := a.I32(minSlab)
	for i := range first {
		first[i] = int32(i)
	}
	// Forces a new backing buffer; the old one must stay valid via `first`.
	second := a.I32(4 * minSlab)
	second[0] = -1
	for i := range first {
		if first[i] != int32(i) {
			t.Fatalf("pre-growth slice corrupted at %d: %d", i, first[i])
		}
	}
}

func TestCapIsClamped(t *testing.T) {
	a := New()
	s := a.I32(10)
	if cap(s) != 10 {
		t.Fatalf("cap = %d, want 10 (full-slice expression should clamp)", cap(s))
	}
	u := a.I32(10)
	// Appending to s must not stomp u.
	u[0] = 7
	s = append(s, 99)
	if u[0] != 7 {
		t.Fatalf("append through earlier arena slice clobbered a later one")
	}
}

func TestZeroLengthAlloc(t *testing.T) {
	a := New()
	if got := a.I32(0); len(got) != 0 {
		t.Fatalf("len = %d, want 0", len(got))
	}
	if got := a.Bool(0); len(got) != 0 {
		t.Fatalf("len = %d, want 0", len(got))
	}
}

func TestMarkerGenerations(t *testing.T) {
	var m Marker
	m.Grow(4)
	m.Next()
	if !m.TryMark(1) {
		t.Fatal("first TryMark(1) = false, want true")
	}
	if m.TryMark(1) {
		t.Fatal("second TryMark(1) = true, want false")
	}
	if !m.Marked(1) || m.Marked(2) {
		t.Fatalf("Marked: got (1)=%v (2)=%v, want true, false", m.Marked(1), m.Marked(2))
	}
	// A new generation empties the set in O(1), no clearing.
	m.Next()
	if m.Marked(1) {
		t.Fatal("Marked(1) = true after Next, want false")
	}
	if !m.TryMark(1) {
		t.Fatal("TryMark(1) = false in fresh generation, want true")
	}
}

func TestMarkerGrowPreservesCurrentGeneration(t *testing.T) {
	var m Marker
	m.Grow(2)
	m.Next()
	m.TryMark(0)
	m.Grow(8)
	if !m.Marked(0) {
		t.Fatal("Grow dropped a current-generation mark")
	}
	if m.Marked(5) {
		t.Fatal("grown index 5 reads marked")
	}
	if !m.TryMark(5) {
		t.Fatal("TryMark(5) = false on grown range, want true")
	}
	m.Grow(4) // shrinking request is a no-op
	if !m.Marked(5) {
		t.Fatal("no-op Grow dropped a mark")
	}
}

func TestSlotMarkerGenerations(t *testing.T) {
	var m SlotMarker
	m.Grow(4)
	m.Next()
	if s := m.Slot(1); s != -1 {
		t.Fatalf("Slot(1) = %d before Set, want -1", s)
	}
	m.Set(1, 7)
	m.Set(3, 0)
	if s := m.Slot(1); s != 7 {
		t.Fatalf("Slot(1) = %d, want 7", s)
	}
	if s := m.Slot(3); s != 0 {
		t.Fatalf("Slot(3) = %d, want 0", s)
	}
	m.Grow(8)
	if s := m.Slot(1); s != 7 {
		t.Fatalf("Grow dropped a current-generation mark: Slot(1) = %d", s)
	}
	if s := m.Slot(6); s != -1 {
		t.Fatalf("grown index 6 reads slot %d", s)
	}
	m.Next()
	if s := m.Slot(1); s != -1 {
		t.Fatalf("Slot(1) = %d after Next, want -1", s)
	}
}

// TestSlotMarkerWrap drives the 32-bit generation to its wrap: the words
// of the last generation before it must not read marked after it.
func TestSlotMarkerWrap(t *testing.T) {
	var m SlotMarker
	m.Grow(2)
	m.cur = (1<<32 - 1) << 32 // the last generation before the wrap
	m.Set(0, 5)
	if s := m.Slot(0); s != 5 {
		t.Fatalf("Slot(0) = %d, want 5", s)
	}
	m.Next()
	if m.cur != 1<<32 {
		t.Fatalf("generation after wrap = %d, want 1", m.cur>>32)
	}
	if s := m.Slot(0); s != -1 {
		t.Fatalf("Slot(0) = %d after the wrap, want -1", s)
	}
	// A mark of generation 1 left over from before the wrap is cleared too.
	m.Set(1, 9)
	m.cur = (1<<32 - 1) << 32
	m.Next()
	if s := m.Slot(1); s != -1 {
		t.Fatalf("Slot(1) = %d after a second wrap, want -1", s)
	}
}

func TestReserveGrowsOnce(t *testing.T) {
	a := New()
	a.ReserveI32(3 * minSlab)
	buf := &a.i32.buf[0]
	for i := 0; i < 3; i++ {
		a.I32(minSlab)
	}
	if got := len(a.i32.buf); got != 3*minSlab || &a.i32.buf[0] != buf {
		t.Fatalf("reserved carves grew the slab: length %d, want %d", got, 3*minSlab)
	}
	// Reserving within a warm slab keeps its buffer.
	a.Reset()
	a.ReserveI32(2 * minSlab)
	if &a.i32.buf[0] != buf {
		t.Fatal("reserving within a warm slab reallocated it")
	}
}
