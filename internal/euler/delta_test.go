package euler

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/spill"
	"repro/internal/verify"
)

// oocConfig returns the out-of-core run configuration the facade's
// FindCircuitStreamSource uses: leaf states and path bodies in DiskStores
// under a fresh directory, sequential workers.
func oocConfig(t *testing.T) Config {
	t.Helper()
	dir := t.TempDir()
	open := func(name string) spill.Store {
		ds, err := spill.NewDiskStore(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		return ds
	}
	return Config{
		Store:      open(SpillLogName),
		InitStore:  open("leaf-init.log"),
		ScratchDir: dir,
		Sequential: true,
	}
}

// circuitOf runs g under cfg and returns the unrolled circuit.
func circuitOf(t *testing.T, g *graph.Graph, cfg Config) ([]graph.Step, *Result) {
	t.Helper()
	res, err := Run(g, partition.LDG(g, 4, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := res.Registry.CollectCircuit()
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Circuit(g, steps); err != nil {
		t.Fatal(err)
	}
	return steps, res
}

// TestOutOfCoreRecordReplay records an out-of-core run, replays it
// out of core on the same graph with one edge doubled, and requires the
// replay to reuse clean partitions and emit exactly the circuit of an
// in-memory from-scratch solve.
func TestOutOfCoreRecordReplay(t *testing.T) {
	base := gen.RingOfCliques(8, 5)
	cfg := oocConfig(t)
	cfg.Record = true
	_, rec := circuitOf(t, base, cfg)
	if rec.Retained == nil {
		t.Fatal("out-of-core Record retained nothing")
	}
	retained, err := DecodeRunRecord(EncodeRunRecord(rec.Retained))
	if err != nil {
		t.Fatal(err)
	}

	b := graph.NewBuilder(base.NumVertices(), int(base.NumEdges())+2)
	for _, e := range base.Edges() {
		b.AddEdge(e.U, e.V)
	}
	e3 := base.Edge(3)
	b.AddEdge(e3.U, e3.V)
	b.AddEdge(e3.U, e3.V)
	patched := b.Build()

	want, _ := circuitOf(t, patched, Config{})
	cfg = oocConfig(t)
	cfg.Replay = retained
	got, res := circuitOf(t, patched, cfg)
	if res.Report.ReusedParts == 0 {
		t.Fatal("out-of-core replay reused no partitions")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("out-of-core replayed circuit differs from the in-memory from-scratch solve")
	}
}
