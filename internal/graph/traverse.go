package graph

// BFSOrder performs a breadth-first traversal from root and returns the
// visit order. Only the connected component of root is visited. The
// returned slice has length equal to that component's size.
func (g *Graph) BFSOrder(root int32) []int32 {
	n := g.NumVertices()
	visited := make([]bool, n)
	order := make([]int32, 0, n)
	order = append(order, root)
	visited[root] = true
	for head := 0; head < len(order); head++ {
		v := order[head]
		adj, _ := g.Neighbors(v)
		for _, u := range adj {
			if !visited[u] {
				visited[u] = true
				order = append(order, u)
			}
		}
	}
	return order
}

// Components labels each vertex with a component id in [0, count) and
// returns the labels and the number of connected components.
func (g *Graph) Components() (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for s := int32(0); int(s) < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		id := int32(count)
		count++
		labels[s] = id
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				if labels[u] < 0 {
					labels[u] = id
					queue = append(queue, u)
				}
			}
		}
	}
	return labels, count
}

// InducedSubgraph returns the subgraph induced by the vertices with
// keep[v]==true, together with the mapping old→new vertex ids (-1 for
// dropped vertices). Edges with a dropped endpoint are discarded.
func (g *Graph) InducedSubgraph(keep []bool) (*Graph, []int32) {
	n := g.NumVertices()
	remap := make([]int32, n)
	nn := int32(0)
	entries := 0 // adjacency entries of the kept vertices: twice an upper bound on the kept edges
	for v := 0; v < n; v++ {
		if keep[v] {
			remap[v] = nn
			nn++
			entries += g.Degree(int32(v))
		} else {
			remap[v] = -1
		}
	}
	b := NewBuilder(int(nn), g.Ncon)
	b.Grow(entries / 2)
	for v := int32(0); int(v) < n; v++ {
		if remap[v] < 0 {
			continue
		}
		b.SetVertexWeight(remap[v], g.VertexWeight(v))
		adj, wgt := g.Neighbors(v)
		for i, u := range adj {
			if u > v && remap[u] >= 0 {
				b.AddEdge(remap[v], remap[u], wgt[i])
			}
		}
	}
	return b.MustFinish(), remap
}
