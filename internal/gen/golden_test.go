package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// csrDigest hashes the four arrays of g, each preceded by its length, so
// two graphs share a digest only when their CSR bytes are identical.
func csrDigest(g *graph.Graph) string {
	h := sha256.New()
	for _, a := range [][]int32{g.Xadj, g.Adjncy, g.Adjwgt, g.Vwgt} {
		_ = binary.Write(h, binary.LittleEndian, int64(len(a))) // a hash.Hash never fails a write
		_ = binary.Write(h, binary.LittleEndian, a)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGeneratorsGolden pins the exact CSR every generator emits: Xadj,
// Adjncy, Adjwgt and Vwgt of each graph, through their SHA-256. Every
// input the partitioner, the benchmark and the experiments run on comes
// from these generators, and every partition depends on the order of each
// adjacency list, so a change to graph assembly that is meant to keep the
// inputs must pass this test unchanged. Full mrng1 at graph seed 7919007
// with overlay seed 1100 is input 0 of the benchmark at seed 1.
func TestGeneratorsGolden(t *testing.T) {
	mesh := func(name string, seed uint64) *graph.Graph {
		spec, ok := MeshByName(name)
		if !ok {
			t.Fatalf("unknown mesh %s", name)
		}
		return spec.Build(seed)
	}
	mrng1 := mesh("mrng1", 7919007)
	plaw := PowerLaw(100000, 8, 2.5, 7919007)
	keep := make([]bool, plaw.NumVertices())
	for v := range keep {
		keep[v] = v%3 != 1
	}
	sub, _ := plaw.InducedSubgraph(keep)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"Grid2D(37,23)", Grid2D(37, 23), "9962880914f361457a19041a0c1d8efffb83885f4b70b415f09e0c3d013eb640"},
		{"Grid3D(9,11,13)", Grid3D(9, 11, 13), "40cd385382504ed510a8217be141934f7700c0a9ab01e66d82dad3ba3677569b"},
		{"mrng1t", mesh("mrng1t", 7), "e7cd01cb0679321474809713ab2056980bcb7606b82e5788971b8b697d1eedb0"},
		{"mrng2t", mesh("mrng2t", 7919007), "523d4755cf20aea91eff6bd31693217bcb752bd604d392b3a0ac0cda0633a51d"},
		{"mrng3t", mesh("mrng3t", 11), "8fa13c36f7437e4023d561b9a3fb96383bff427bf923f62bc3577c3383b428ae"},
		{"mrng2s", mesh("mrng2s", 7919007), "677c027a245d4e590928e60f0feb4ab78d0405915ae6280b5dae2bff4c6a1bf8"},
		{"mrng1", mrng1, "6e9fc0721e8a78e89ec1779e599168a11d0197e6f33a549b687955907306a147"},
		{"mrng1 type1 m=3", Type1(mrng1, 3, 1100), "4c845096d6e220e2252281dbe1a92f25327133fab50758e2d978d626ca50b6d5"},
		{"mrng1 type2 m=3", Type2(mrng1, 3, 1100), "aae3d15bb9b2458d20361c038713f949d948967bb38c14b1f546ac6a57f2f560"},
		{"PowerLaw(100000,8,2.5)", plaw, "d4e8f549dad3678c988187b78731f55dd73734e7c28e9f4b986814cb2859fb5c"},
		{"PowerLaw(100000,8,2.5) induced", sub, "0029e29e13d2d2667e24d8b3fa222adcd17bb268ae06d1ae8e3431eaf02dd102"},
	} {
		if got := csrDigest(tc.g); got != tc.want {
			t.Errorf("%s: CSR sha256 = %s, want %s", tc.name, got, tc.want)
		}
	}
}
