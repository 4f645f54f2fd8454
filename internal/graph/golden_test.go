package graph_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestWriteMETISGolden pins the bytes WriteMETIS emits, through their
// SHA-256. mcpartd content-addresses results by hashing this
// serialization, and its disk tier keeps them under those keys across
// restarts, so any change to the bytes orphans every persisted result.
// The three graphs cover both header forms (ncon = 1 and ncon > 1) and
// zero edge weights (Type 2 phases).
func TestWriteMETISGolden(t *testing.T) {
	spec, _ := gen.MeshByName("mrng1t")
	base := spec.Build(7)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"mrng1t", base, "87b02e123c8d51e130bee42003bcece3678b905c7be2e0ee88ddc5c2ad4d74cc"},
		{"mrng1t type1 m=3", gen.Type1(base, 3, 11), "8a7556cf468c67b2c72eec3422a609c40f159e72c416c654388596036089bf3c"},
		{"mrng1t type2 m=3", gen.Type2(base, 3, 11), "d2782ea798d2bfbf0cb63b777e389d8ef834e2ab6641cae688fd56f61b607316"},
	} {
		var buf bytes.Buffer
		if err := graph.WriteMETIS(&buf, tc.g); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
			t.Errorf("%s: WriteMETIS sha256 = %s, want %s", tc.name, got, tc.want)
		}
	}
}
