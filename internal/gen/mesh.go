// Package gen generates the synthetic inputs of the paper's evaluation:
// mesh-like graphs standing in for the mrng1..mrng4 test graphs, and the
// Type 1 / Type 2 multi-constraint workloads layered on top of them.
//
// The paper's mrng graphs are 3D irregular meshes of 257K to 7.5M vertices
// with roughly 4 edges per vertex and small bounded degree. Those meshes are
// not publicly archived, so MRNGLike builds structurally equivalent graphs:
// a 3D grid (6-neighborhood) augmented with one body diagonal per cell and
// a seeded random perturbation, matching the published vertex/edge ratios
// and the bounded-degree, well-shaped assumptions of the paper's
// scalability analysis. See DESIGN.md, "Substitutions".
package gen

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// Grid2D returns a w×h 4-neighborhood grid graph with unit weights and one
// constraint. Useful for tests and examples where geometry should be easy
// to reason about.
func Grid2D(w, h int) *graph.Graph {
	b := graph.NewBuilder(w*h, 1)
	b.Grow(gridEdges(w, h, 1))
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	return b.MustFinish()
}

// Grid3D returns an nx×ny×nz 6-neighborhood grid graph with unit weights
// and one constraint.
func Grid3D(nx, ny, nz int) *graph.Graph {
	b := graph.NewBuilder(nx*ny*nz, 1)
	b.Grow(gridEdges(nx, ny, nz))
	id := func(x, y, z int) int32 { return int32((z*ny+y)*nx + x) }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if x+1 < nx {
					b.AddEdge(id(x, y, z), id(x+1, y, z), 1)
				}
				if y+1 < ny {
					b.AddEdge(id(x, y, z), id(x, y+1, z), 1)
				}
				if z+1 < nz {
					b.AddEdge(id(x, y, z), id(x, y, z+1), 1)
				}
			}
		}
	}
	return b.MustFinish()
}

// MRNGLike returns an irregular 3D mesh-like graph with nx*ny*nz vertices:
// a 3D grid with, per unit cell, a body-diagonal edge, where a seeded
// random ~5% of the diagonals are rerouted to a different cell corner. The
// result is connected, has bounded degree (<= 9) and edge/vertex ratio
// ~3.9, matching the paper's mrng graphs.
func MRNGLike(nx, ny, nz int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(nx*ny*nz, 1)
	// The grid's edges and one diagonal per interior cell corner.
	b.Grow(gridEdges(nx, ny, nz) + max(nx-1, 0)*max(ny-1, 0)*max(nz-1, 0))
	id := func(x, y, z int) int32 { return int32((z*ny+y)*nx + x) }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := id(x, y, z)
				if x+1 < nx {
					b.AddEdge(v, id(x+1, y, z), 1)
				}
				if y+1 < ny {
					b.AddEdge(v, id(x, y+1, z), 1)
				}
				if z+1 < nz {
					b.AddEdge(v, id(x, y, z+1), 1)
				}
				// One diagonal per interior cell corner, usually the body
				// diagonal, occasionally a face diagonal — the perturbation
				// that makes the mesh irregular.
				if x+1 < nx && y+1 < ny && z+1 < nz {
					switch r.Intn(20) {
					case 0:
						b.AddEdge(v, id(x+1, y+1, z), 1)
					case 1:
						b.AddEdge(v, id(x+1, y, z+1), 1)
					case 2:
						b.AddEdge(v, id(x, y+1, z+1), 1)
					default:
						b.AddEdge(v, id(x+1, y+1, z+1), 1)
					}
				}
			}
		}
	}
	return b.MustFinish()
}

// gridEdges is the edge count of an nx×ny×nz 6-neighborhood grid.
func gridEdges(nx, ny, nz int) int {
	return max(nx-1, 0)*ny*nz + nx*max(ny-1, 0)*nz + nx*ny*max(nz-1, 0)
}

// MeshSpec names one of the paper's four test graphs at a given scale.
type MeshSpec struct {
	Name       string
	Nx, Ny, Nz int
}

// Vertices returns the vertex count of the mesh.
func (s MeshSpec) Vertices() int { return s.Nx * s.Ny * s.Nz }

// Build generates the mesh.
func (s MeshSpec) Build(seed uint64) *graph.Graph { return MRNGLike(s.Nx, s.Ny, s.Nz, seed) }

// PaperMeshes are full-size stand-ins for mrng1..mrng4 (Table 1 of the
// paper: 257K, 1.02M, 4.04M and 7.53M vertices).
var PaperMeshes = []MeshSpec{
	{Name: "mrng1", Nx: 64, Ny: 64, Nz: 63},    // 258,048 vertices
	{Name: "mrng2", Nx: 101, Ny: 101, Nz: 100}, // 1,020,100
	{Name: "mrng3", Nx: 159, Ny: 159, Nz: 160}, // 4,044,960
	{Name: "mrng4", Nx: 196, Ny: 196, Nz: 196}, // 7,529,536
}

// ScaledMeshes shrink each mrng stand-in by ~2.6x per linear dimension
// (~18x fewer vertices) while preserving the paper's ~4x size progression
// between consecutive graphs, so the full experiment sweep runs in
// workstation-scale time while keeping enough vertices per simulated
// processor (mrng1s at p=128 still has >100 vertices/processor) for the
// quality comparisons to be meaningful. The relative claims (edge-cut
// ratios, efficiency trends) are scale-free.
var ScaledMeshes = []MeshSpec{
	{Name: "mrng1s", Nx: 24, Ny: 24, Nz: 24}, // 13,824
	{Name: "mrng2s", Nx: 38, Ny: 38, Nz: 38}, // 54,872
	{Name: "mrng3s", Nx: 60, Ny: 60, Nz: 60}, // 216,000
	{Name: "mrng4s", Nx: 75, Ny: 75, Nz: 75}, // 421,875
}

// TinyMeshes are for quick benchmark runs and CI: the same ~4x progression
// at 1/64 the paper's sizes.
var TinyMeshes = []MeshSpec{
	{Name: "mrng1t", Nx: 16, Ny: 16, Nz: 16}, // 4,096
	{Name: "mrng2t", Nx: 25, Ny: 25, Nz: 25}, // 15,625
	{Name: "mrng3t", Nx: 40, Ny: 40, Nz: 40}, // 64,000
	{Name: "mrng4t", Nx: 49, Ny: 49, Nz: 49}, // 117,649
}

// MeshByName returns the mesh spec with the given name from any list.
func MeshByName(name string) (MeshSpec, bool) {
	for _, list := range [][]MeshSpec{PaperMeshes, ScaledMeshes, TinyMeshes} {
		for _, s := range list {
			if s.Name == name {
				return s, true
			}
		}
	}
	return MeshSpec{}, false
}
