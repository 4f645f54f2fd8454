// External test package: internal/check imports gaincache for its
// boundary-state verifier.
package gaincache_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/gaincache"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestMoveAndShiftKeepStateExact drives a state that owns the first half of
// a mesh (entries into the second half act as ghosts) through random owned
// moves, ghost relabels and gathers, and checks it after every step against
// check.VerifyBoundary's scratch re-derivation: degrees, foreign-neighbor
// counts, the boundary count and the row bound, ghost rows included.
func TestMoveAndShiftKeepStateExact(t *testing.T) {
	const k = 5
	g := gen.Type1(gen.MRNGLike(8, 8, 8, 3), 2, 9)
	n, nlocal := g.NumVertices(), g.NumVertices()/2
	r := rng.New(4)
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(r.Intn(k))
	}
	// The owned endpoints and weights of every edge to each ghost.
	type edge struct {
		u int32
		w int64
	}
	toGhost := make([][]edge, n-nlocal)
	for u := 0; u < nlocal; u++ {
		for e := g.Xadj[u]; e < g.Xadj[u+1]; e++ {
			if slot := int(g.Adjncy[e]) - nlocal; slot >= 0 {
				toGhost[slot] = append(toGhost[slot], edge{int32(u), int64(g.Adjwgt[e])})
			}
		}
	}
	s := gaincache.NewState(k, g.Ncon)
	s.Bind(g.Xadj[:nlocal+1], g.Adjncy, g.Adjwgt, labels)
	s.Seed()
	if err := check.VerifyBoundary(&s, nil, nil, 0); err != nil {
		t.Fatalf("seeded state: %v", err)
	}
	for step := 0; step < 3000; step++ {
		switch step % 3 {
		case 0: // a ghost changes label
			slot := r.Intn(n - nlocal)
			a := labels[nlocal+slot]
			b := (a + 1 + int32(r.Intn(k-1))) % k
			labels[nlocal+slot] = b
			for _, e := range toGhost[slot] {
				s.Shift(e.u, a, b, e.w)
			}
		case 1: // an owned vertex moves
			v := int32(r.Intn(nlocal))
			a := labels[v]
			s.Move(v, a, (a+1+int32(r.Intn(k-1)))%k)
		case 2: // a gather tightens a row bound
			s.Gather(int32(r.Intn(nlocal)))
		}
		if err := check.VerifyBoundary(&s, nil, nil, 0); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}
