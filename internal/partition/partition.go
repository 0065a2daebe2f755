// Package partition assigns the vertices of a graph to k parts and reports
// the partition-quality metrics of the paper's Table 1.
//
// The paper partitions its inputs with ParHIP, an external multilevel
// partitioner.  The algorithm itself only consumes the resulting
// assignment (boundary sets, remote-edge fractions, imbalance), so this
// package substitutes a Linear Deterministic Greedy (LDG) streaming
// partitioner over a BFS vertex ordering, which produces realistic edge-cut
// fractions and load imbalance on power-law graphs, plus hash and range
// baselines for the ablation benchmarks.
//
// LDG makes one pass over the graph and reads each adjacency list once,
// in windows of queued vertices fetched in ascending vertex order, so a
// disk-paged graph streams through its pages instead of faulting them in
// BFS order.
package partition

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// Assignment maps every vertex of a graph to a partition in [0, Parts).
type Assignment struct {
	Parts int32
	Of    []int32 // indexed by VertexID
}

// Validate checks that the assignment covers exactly the vertices of g with
// in-range partition IDs and that every partition is non-empty.
func (a Assignment) Validate(g graph.Source) error {
	if int64(len(a.Of)) != g.NumVertices() {
		return fmt.Errorf("partition: assignment covers %d vertices, graph has %d",
			len(a.Of), g.NumVertices())
	}
	seen := make([]bool, a.Parts)
	for v, p := range a.Of {
		if p < 0 || p >= a.Parts {
			return fmt.Errorf("partition: vertex %d assigned out-of-range part %d", v, p)
		}
		seen[p] = true
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("partition: part %d is empty", p)
		}
	}
	return nil
}

// Sizes returns the number of vertices in each partition.
func (a Assignment) Sizes() []int64 {
	sizes := make([]int64, a.Parts)
	for _, p := range a.Of {
		sizes[p]++
	}
	return sizes
}

// Hash assigns vertices to partitions by a multiplicative hash of their ID.
// It is the quality floor for the partitioner ablation: edge cuts approach
// (k-1)/k of all edges.
func Hash(g graph.Source, k int32) Assignment {
	a := Assignment{Parts: k, Of: make([]int32, g.NumVertices())}
	for v := int64(0); v < g.NumVertices(); v++ {
		h := uint64(v) * 0x9e3779b97f4a7c15
		a.Of[v] = int32(h % uint64(k))
	}
	fixEmpty(&a, g)
	return a
}

// Range assigns contiguous vertex-ID blocks to partitions.  For generators
// with ID locality (torus, ring of cliques) this yields low edge cuts.
func Range(g graph.Source, k int32) Assignment {
	n := g.NumVertices()
	a := Assignment{Parts: k, Of: make([]int32, n)}
	for v := int64(0); v < n; v++ {
		p := int32(v * int64(k) / n)
		a.Of[v] = p
	}
	fixEmpty(&a, g)
	return a
}

// ldgWindowHalves bounds the adjacency LDG copies out per read window:
// 64Ki halves (1 MiB), one default page of a paged CSR.  A window holds
// at least one vertex, so a hub of higher degree gets a window alone.
const ldgWindowHalves = 64 << 10

// LDG runs Linear Deterministic Greedy streaming partitioning over a BFS
// vertex ordering: each vertex goes to the partition holding most of its
// already-placed neighbours, discounted by a load penalty (1 - size/cap).
// The BFS order makes neighbour information available early, which is what
// gives streaming partitioners their edge-cut advantage on power-law
// graphs.  The BFS starts at a seeded random root and restarts at the
// lowest unvisited vertex for other components.
//
// It is one pass that calls Adj once per vertex: a vertex is placed as it
// leaves the BFS queue, and its unvisited neighbours are enqueued from the
// same list.  The reads are windowed: the lists of the next queued
// vertices, up to ldgWindowHalves halves, are copied out in ascending
// vertex order (ascending offset in a CSR, so a paged CSR faults each
// page at most once per window) and then placed in BFS order.
func LDG(g graph.Source, k int32, seed int64) Assignment {
	n := g.NumVertices()
	a := Assignment{Parts: k, Of: make([]int32, n)}
	for i := range a.Of {
		a.Of[i] = -1
	}
	capacity := float64(n)/float64(k) + 1
	sizes := make([]int64, k)
	neigh := make([]int64, k) // scratch: neighbours already in each part
	// queue receives every vertex once, in BFS order; queue[head:] is
	// still to be placed.
	queue := make([]graph.VertexID, 0, n)
	visited := make([]bool, n)
	enqueue := func(v graph.VertexID) {
		visited[v] = true
		queue = append(queue, v)
	}
	if n > 0 {
		enqueue(rand.New(rand.NewSource(seed)).Int63n(n))
	}
	type span struct{ lo, hi int }
	var (
		byID  []int        // window positions in ascending vertex order
		spans []span       // window position i's list is buf[spans[i].lo:spans[i].hi]
		buf   []graph.Half // the window's copied lists
	)
	for head, next := 0, int64(0); ; {
		if head == len(queue) {
			for next < n && visited[next] {
				next++
			}
			if next >= n {
				break
			}
			enqueue(next)
		}
		end, halves := head+1, g.Degree(queue[head])
		for end < len(queue) && halves+g.Degree(queue[end]) <= ldgWindowHalves {
			halves += g.Degree(queue[end])
			end++
		}
		window := queue[head:end]
		byID, spans, buf = byID[:0], spans[:0], buf[:0]
		for i := range window {
			byID = append(byID, i)
			spans = append(spans, span{})
		}
		slices.SortFunc(byID, func(i, j int) int { return cmp.Compare(window[i], window[j]) })
		for _, i := range byID {
			lo := len(buf)
			buf = append(buf, g.Adj(window[i])...)
			spans[i] = span{lo, len(buf)}
		}
		for i, v := range window {
			adj := buf[spans[i].lo:spans[i].hi]
			clear(neigh)
			for _, h := range adj {
				if p := a.Of[h.To]; p >= 0 {
					neigh[p]++
				}
			}
			best := int32(0)
			bestScore := -1.0
			for p := int32(0); p < k; p++ {
				penalty := 1 - float64(sizes[p])/capacity
				if penalty < 0 {
					penalty = 0
				}
				score := float64(neigh[p]) * penalty
				// Deterministic tie-break: lower load, then lower part ID.
				if score > bestScore ||
					(score == bestScore && sizes[p] < sizes[best]) {
					best, bestScore = p, score
				}
			}
			a.Of[v] = best
			sizes[best]++
			for _, h := range adj {
				if !visited[h.To] {
					enqueue(h.To)
				}
			}
		}
		head = end
	}
	fixEmpty(&a, g)
	return a
}

// fixEmpty moves one vertex into any empty partition so downstream code can
// assume every part is populated.  Only tiny graphs with k close to n ever
// trigger it.
func fixEmpty(a *Assignment, g graph.Source) {
	sizes := a.Sizes()
	for p := int32(0); p < a.Parts; p++ {
		if sizes[p] > 0 {
			continue
		}
		// Take a vertex from the largest partition.
		donor := int32(0)
		for q := int32(1); q < a.Parts; q++ {
			if sizes[q] > sizes[donor] {
				donor = q
			}
		}
		for v := int64(0); v < g.NumVertices(); v++ {
			if a.Of[v] == donor {
				a.Of[v] = p
				sizes[donor]--
				sizes[p]++
				break
			}
		}
	}
}
