package mesh

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// TestMeshGraphsGolden pins the exact CSR (Xadj, Adjncy, Adjwgt and Vwgt,
// through their SHA-256) of a tetrahedral mesh's dual and nodal graphs,
// the sibling of internal/gen's TestGeneratorsGolden for graphs built
// from element connectivity.
func TestMeshGraphsGolden(t *testing.T) {
	m := StructuredTet(7, 6, 5)
	dual, err := m.DualGraph()
	if err != nil {
		t.Fatal(err)
	}
	nodal, err := m.NodalGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"StructuredTet(7,6,5) dual", dual, "b147abb1c7796d6dc5182315573641f1dc4572b156a2792f6eb91be4c51ad9cd"},
		{"StructuredTet(7,6,5) nodal", nodal, "c90829774fb23f13cb092645e2f9de4a22ae4712049e7611fc714f2b02364410"},
	} {
		h := sha256.New()
		for _, a := range [][]int32{tc.g.Xadj, tc.g.Adjncy, tc.g.Adjwgt, tc.g.Vwgt} {
			_ = binary.Write(h, binary.LittleEndian, int64(len(a))) // a hash.Hash never fails a write
			_ = binary.Write(h, binary.LittleEndian, a)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("%s: CSR sha256 = %s, want %s", tc.name, got, tc.want)
		}
	}
}
