package partition

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oocgraph"
)

// ldgTwoPass is the reference LDG: a full BFS ordering first, then a
// second pass that scores every vertex in that order.  The one-pass,
// windowed LDG must reproduce its assignment exactly.
func ldgTwoPass(g graph.Source, k int32, seed int64) Assignment {
	n := g.NumVertices()
	a := Assignment{Parts: k, Of: make([]int32, n)}
	for i := range a.Of {
		a.Of[i] = -1
	}
	capacity := float64(n)/float64(k) + 1
	sizes := make([]int64, k)
	neigh := make([]int64, k)
	for _, v := range bfsOrder(g, seed) {
		for i := range neigh {
			neigh[i] = 0
		}
		for _, h := range g.Adj(v) {
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
			if score > bestScore ||
				(score == bestScore && sizes[p] < sizes[best]) {
				best, bestScore = p, score
			}
		}
		a.Of[v] = best
		sizes[best]++
	}
	fixEmpty(&a, g)
	return a
}

// bfsOrder returns all vertices in BFS order from a seeded random root,
// restarting at the lowest unvisited vertex for other components.
func bfsOrder(g graph.Source, seed int64) []graph.VertexID {
	n := g.NumVertices()
	order := make([]graph.VertexID, 0, n)
	visited := make([]bool, n)
	var queue []graph.VertexID
	rng := rand.New(rand.NewSource(seed))
	enqueue := func(v graph.VertexID) {
		visited[v] = true
		queue = append(queue, v)
	}
	enqueue(rng.Int63n(n))
	for next := int64(0); ; {
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, h := range g.Adj(v) {
				if !visited[h.To] {
					enqueue(h.To)
				}
			}
		}
		for next < n && visited[next] {
			next++
		}
		if next >= n {
			break
		}
		enqueue(next)
	}
	return order
}

// multiComponent interleaves three components in ID space (cycles over
// the residues mod 3 of the first 3c IDs) and trails isolated vertices,
// so the BFS restarts at the lowest unvisited vertex several times.
func multiComponent(c, isolated int64) *graph.Graph {
	b := graph.NewBuilder(3*c+isolated, int(3*c))
	for r := int64(0); r < 3; r++ {
		for i := int64(0); i < c; i++ {
			b.AddEdge(3*i+r, 3*((i+1)%c)+r)
		}
	}
	return b.Build()
}

// hub joins vertex 0 to every other vertex of a cycle, giving it a degree
// above ldgWindowHalves: its read window holds it alone.
func hub() *graph.Graph {
	leaves := int64(ldgWindowHalves + 100)
	b := graph.NewBuilder(leaves+1, int(2*leaves))
	for v := int64(1); v <= leaves; v++ {
		b.AddEdge(0, v)
		b.AddEdge(v, v%leaves+1)
	}
	return b.Build()
}

func TestLDGMatchesTwoPass(t *testing.T) {
	rmat, _ := gen.EulerianRMAT(gen.DefaultRMAT(14, 5))
	graphs := map[string]*graph.Graph{
		"torus":          gen.Torus(200, 150),
		"rmat":           rmat,
		"ringOfCliques":  gen.RingOfCliques(40, 9),
		"multiComponent": multiComponent(5000, 7),
		"hub":            hub(),
	}
	for name, g := range graphs {
		for _, k := range []int32{1, 2, 4, 16} {
			for _, seed := range []int64{1, 7, 42} {
				t.Run(fmt.Sprintf("%s/k=%d/seed=%d", name, k, seed), func(t *testing.T) {
					got, want := LDG(g, k, seed), ldgTwoPass(g, k, seed)
					if !slices.Equal(got.Of, want.Of) {
						t.Fatal("one-pass LDG assignment differs from the two-pass reference")
					}
				})
			}
		}
	}
}

// countingSource counts Adj calls on the way to another Source.
type countingSource struct {
	graph.Source
	adj int64
}

func (c *countingSource) Adj(v graph.VertexID) []graph.Half {
	c.adj++
	return c.Source.Adj(v)
}

// buildPaged writes g to an EULGRPH1 file and opens it as a paged CSR.
func buildPaged(tb testing.TB, g *graph.Graph, opt oocgraph.BuildOptions) *oocgraph.PagedGraph {
	tb.Helper()
	dir := tb.TempDir()
	path := filepath.Join(dir, "graph.bin")
	if err := graph.WriteFile(path, g); err != nil {
		tb.Fatal(err)
	}
	opt.Dir = dir
	pg, err := oocgraph.BuildPaged(path, opt)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { pg.Close() })
	return pg
}

// TestLDGPagedMatchesInMemory runs LDG through a paged CSR whose two
// resident pages of 64 halves force constant eviction: the assignment
// must equal the in-memory one, with exactly one Adj call per vertex.
func TestLDGPagedMatchesInMemory(t *testing.T) {
	rmat, _ := gen.EulerianRMAT(gen.DefaultRMAT(12, 3))
	for name, g := range map[string]*graph.Graph{
		"torus":          gen.Torus(150, 150),
		"rmat":           rmat,
		"multiComponent": multiComponent(400, 3),
	} {
		t.Run(name, func(t *testing.T) {
			pg := buildPaged(t, g, oocgraph.BuildOptions{
				PageHalves: 64,
				MemBytes:   2 * 64 * int64(unsafe.Sizeof(graph.Half{})),
			})
			src := &countingSource{Source: pg}
			got, want := LDG(src, 8, 11), LDG(g, 8, 11)
			if !slices.Equal(got.Of, want.Of) {
				t.Fatal("paged LDG assignment differs from the in-memory one")
			}
			if src.adj != g.NumVertices() {
				t.Fatalf("LDG made %d Adj calls, want one per vertex (%d)", src.adj, g.NumVertices())
			}
		})
	}
}

// BenchmarkLDGPaged partitions a torus through a paged CSR holding half
// of its adjacency resident, reporting the page faults per partition.
func BenchmarkLDGPaged(b *testing.B) {
	g := gen.Torus(256, 256) // 256 Ki halves = 4 default pages
	pg := buildPaged(b, g, oocgraph.BuildOptions{
		MemBytes: 2 * oocgraph.DefaultPageHalves * int64(unsafe.Sizeof(graph.Half{})),
	})
	faults0, _, _ := oocgraph.Stats()
	ops := 0
	for b.Loop() {
		LDG(pg, 16, 1)
		ops++
	}
	faults1, _, _ := oocgraph.Stats()
	b.ReportMetric(float64(faults1-faults0)/float64(ops), "faults/op")
}
