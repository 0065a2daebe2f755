package sched

import (
	"reflect"
	"strings"
	"testing"
)

// TestDeltaApplyRemovals pins Apply's removal semantics: either
// orientation matches, parallel copies go earliest first, and a pair with
// no copy left is a client error.
func TestDeltaApplyRemovals(t *testing.T) {
	base := &DeltaEntry{
		NumVertices: 4,
		Edges:       [][2]int64{{0, 1}, {1, 2}, {0, 1}, {2, 3}, {1, 0}, {3, 0}},
	}
	cases := []struct {
		name   string
		add    [][2]int64
		remove [][2]int64
		want   [][2]int64 // patched edges in edge-ID order
		err    string
	}{
		{"no diff", nil, nil, base.Edges, ""},
		{"two parallel copies are two distinct edges", nil, [][2]int64{{0, 1}, {0, 1}},
			[][2]int64{{1, 2}, {2, 3}, {1, 0}, {3, 0}}, ""},
		{"reversed orientation matches", nil, [][2]int64{{2, 1}, {0, 3}},
			[][2]int64{{0, 1}, {0, 1}, {2, 3}, {1, 0}}, ""},
		{"every copy, then adds appended", [][2]int64{{1, 4}, {4, 1}}, [][2]int64{{1, 0}, {0, 1}, {0, 1}},
			[][2]int64{{1, 2}, {2, 3}, {3, 0}, {1, 4}, {4, 1}}, ""},
		{"missing edge", nil, [][2]int64{{0, 2}}, nil,
			"diff removes edge [0 2] not present in the base graph"},
		{"one copy too many", nil, [][2]int64{{0, 1}, {0, 1}, {1, 0}, {0, 1}}, nil,
			"diff removes edge [0 1] not present in the base graph"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := base.Apply(c.add, c.remove)
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("Apply error %v, want %q", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := EdgePairs(g); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("patched edges %v, want %v", got, c.want)
			}
		})
	}
}

// BenchmarkDeltaApply removes the maximum diff (4096 edges) from a
// 1M-edge base: one indexed pass, not a base scan per removal.
func BenchmarkDeltaApply(b *testing.B) {
	const n, removals = 1 << 20, 4096
	base := &DeltaEntry{NumVertices: n, Edges: make([][2]int64, n)}
	for i := range base.Edges {
		base.Edges[i] = [2]int64{int64(i), int64((i + 1) % n)}
	}
	remove := make([][2]int64, removals)
	for i := range remove {
		ed := base.Edges[n-1-i*(n/removals)]
		remove[i] = [2]int64{ed[1], ed[0]}
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := base.Apply(nil, remove); err != nil {
			b.Fatal(err)
		}
	}
}
