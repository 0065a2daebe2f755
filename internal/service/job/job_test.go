package job

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/euler"
	"repro/internal/graph"
	"repro/internal/jobkind"
	"repro/internal/sched"
)

// readSteps replays a source's NDJSON frames back into steps with the
// default kind's line parser.
func readSteps(t *testing.T, src sched.CircuitSource) ([]graph.Step, error) {
	t.Helper()
	kind := jobkind.MustGet(jobkind.DefaultName)
	var steps []graph.Step
	err := src.IterateBatches(func(frame []byte) error {
		for _, line := range bytes.SplitAfter(frame, []byte{'\n'}) {
			if len(line) == 0 {
				continue
			}
			st, err := kind.ParseLine(line[:len(line)-1])
			if err != nil {
				return err
			}
			steps = append(steps, st)
		}
		return nil
	})
	return steps, err
}

func TestSinkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "circuit.log")
	sink, err := NewCircuitSink(path, 3, jobkind.MustGet(jobkind.DefaultName))
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	want := make([]graph.Step, 10)
	for i := range want {
		want[i] = graph.Step{Edge: int64(i), From: int64(i * 2), To: int64(i*2 + 1)}
		if err := sink.Append(want[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, err := readSteps(t, sink); err == nil {
		t.Fatal("iterate before Finish should fail")
	}
	if err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := sink.Steps(); got != 10 {
		t.Fatalf("steps = %d, want 10", got)
	}
	got, err := readSteps(t, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d steps, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := sink.Append(graph.Step{}); err == nil {
		t.Fatal("append after Finish should fail")
	}
}

// TestSinkCloseDeferredDuringIterate: closing the sink (as retention
// eviction does) while a reader is mid-stream must not cut the stream
// short; the close completes when the reader leaves.
func TestSinkCloseDeferredDuringIterate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "circuit.log")
	sink, err := NewCircuitSink(path, 2, jobkind.MustGet(jobkind.DefaultName))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := sink.Append(graph.Step{Edge: int64(i), From: int64(i), To: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	var frames int
	err = sink.IterateBatches(func([]byte) error {
		frames++
		if frames == 1 {
			// Concurrent eviction closes the sink mid-stream.
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("iterate with concurrent close: %v", err)
	}
	if frames != 5 {
		t.Fatalf("saw %d frames, want 5", frames)
	}
	// The deferred close has now landed: further reads are refused.
	if _, err := readSteps(t, sink); err == nil {
		t.Fatal("iterate after close should fail")
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestStateMachine(t *testing.T) {
	s := NewStore(10)
	j := s.New(Spec{Generator: &GenSpec{Family: "torus"}}, "")

	if st := j.State(); st != StateQueued {
		t.Fatalf("state = %s, want queued", st)
	}
	if !j.Start() {
		t.Fatal("Start on queued job should succeed")
	}
	if j.Start() {
		t.Fatal("second Start should fail")
	}
	if st := j.Fail(errors.New("boom")); st != StateFailed {
		t.Fatalf("Fail => %s, want failed", st)
	}
	snap := j.Snapshot()
	if snap.Error != "boom" || snap.Started == nil || snap.Finished == nil {
		t.Fatalf("bad snapshot after fail: %+v", snap)
	}
}

func TestCancelQueuedThenRunning(t *testing.T) {
	s := NewStore(10)

	// Queued job: cancel transitions immediately and Start is refused.
	q := s.New(Spec{Generator: &GenSpec{Family: "torus"}}, "")
	state, transitioned := q.Cancel()
	if state != StateCancelled || !transitioned {
		t.Fatalf("cancel queued => (%s, %v), want (cancelled, true)", state, transitioned)
	}
	if q.Start() {
		t.Fatal("Start after cancel should fail")
	}

	// Running job: cancel only requests; Fail maps the resulting error
	// to cancelled because the context is gone.
	r := s.New(Spec{Generator: &GenSpec{Family: "torus"}}, "")
	r.Start()
	state, transitioned = r.Cancel()
	if state != StateRunning || transitioned {
		t.Fatalf("cancel running => (%s, %v), want (running, false)", state, transitioned)
	}
	if r.Context().Err() == nil {
		t.Fatal("running job's context should be cancelled")
	}
	if st := r.Fail(r.Context().Err()); st != StateCancelled {
		t.Fatalf("Fail after cancel => %s, want cancelled", st)
	}
}

// TestCircuitSurvivesEviction: Circuit() hands back the sink with a
// reader reference already held, so an eviction racing with the
// hand-off cannot close the log before the stream starts.
func TestCircuitSurvivesEviction(t *testing.T) {
	s := NewStore(1)
	dir := filepath.Join(t.TempDir(), "a")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	a := s.New(Spec{Generator: &GenSpec{Family: "torus"}}, dir)
	sink, err := NewCircuitSink(filepath.Join(dir, "circuit.log"), 2, jobkind.MustGet(jobkind.DefaultName))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := sink.Append(graph.Step{Edge: int64(i), From: int64(i), To: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	a.Start()
	a.Finish(&euler.RunReport{}, sink)

	got, release, ok := a.Circuit() // reference held from here
	if !ok {
		t.Fatal("Circuit on done job failed")
	}

	// Evict job a: two more terminal jobs push it past the bound.
	for i := 0; i < 2; i++ {
		j := s.New(Spec{Generator: &GenSpec{Family: "torus"}}, "")
		j.Start()
		j.Fail(errors.New("x"))
	}
	s.New(Spec{Generator: &GenSpec{Family: "torus"}}, "")
	if _, ok := s.Get(a.ID); ok {
		t.Fatal("job a should have been evicted")
	}

	// The stream still replays in full despite the eviction's Close.
	steps, err := readSteps(t, got)
	if err != nil {
		t.Fatalf("iterate after eviction: %v", err)
	}
	if len(steps) != 5 {
		t.Fatalf("saw %d steps, want 5", len(steps))
	}
	release()

	// With the last reference gone the deferred close lands.
	if _, _, ok := a.Circuit(); ok {
		t.Fatal("Circuit should refuse after the deferred close")
	}
}

// fakeSource is an in-memory sched.CircuitSource of NDJSON lines.
type fakeSource []string

func (f fakeSource) Steps() int64 { return int64(len(f)) }
func (f fakeSource) IterateBatches(fn func([]byte) error) error {
	for _, line := range f {
		if err := fn([]byte(line)); err != nil {
			return err
		}
	}
	return nil
}

// TestFinishCached: a queued job completes straight from a cached
// source, serves it through Circuit, and drops its prebuilt graph; a
// cancelled job refuses the cached completion.
func TestFinishCached(t *testing.T) {
	s := NewStore(10)
	j := s.New(Spec{Generator: &GenSpec{Family: "torus"}}, "")
	j.AttachGraph(graph.FromEdges(2, [][2]graph.VertexID{{0, 1}}))
	src := fakeSource{`{"edge":0,"from":0,"to":1}` + "\n", `{"edge":1,"from":1,"to":0}` + "\n"}
	if !j.FinishCached(src) {
		t.Fatal("FinishCached on a queued job must succeed")
	}
	if j.Graph() != nil {
		t.Fatal("terminal job must drop its prebuilt graph")
	}
	snap := j.Snapshot()
	if snap.State != StateDone || snap.Steps != 2 || snap.Started != nil {
		t.Fatalf("cached snapshot = %+v, want done with 2 steps and no start time", snap)
	}
	got, release, ok := j.Circuit()
	if !ok || got.Steps() != 2 {
		t.Fatal("Circuit must serve the cached source")
	}
	release()
	if j.Start() {
		t.Fatal("Start after a cached completion must fail")
	}

	c := s.New(Spec{Generator: &GenSpec{Family: "torus"}}, "")
	c.Cancel()
	if c.FinishCached(src) {
		t.Fatal("FinishCached on a cancelled job must refuse")
	}
	if st := c.State(); st != StateCancelled {
		t.Fatalf("state = %s after refused cached finish, want cancelled", st)
	}
}

func TestStoreRetention(t *testing.T) {
	s := NewStore(2)
	base := t.TempDir()
	var jobs []*Job
	for i := 0; i < 3; i++ {
		dir := filepath.Join(base, newID())
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		j := s.New(Spec{Generator: &GenSpec{Family: "torus"}}, dir)
		j.Start()
		j.Fail(errors.New("x"))
		jobs = append(jobs, j)
	}
	// Adding a fourth evicts the oldest terminal job beyond the bound.
	s.New(Spec{Generator: &GenSpec{Family: "torus"}}, "")
	if _, ok := s.Get(jobs[0].ID); ok {
		t.Fatal("oldest terminal job should have been evicted")
	}
	if _, ok := s.Get(jobs[2].ID); !ok {
		t.Fatal("newest terminal job should survive")
	}
	if _, err := os.Stat(jobs[0].Dir); !os.IsNotExist(err) {
		t.Fatalf("evicted job dir should be removed, stat err = %v", err)
	}
	if n := s.Len(); n != 3 {
		t.Fatalf("store len = %d, want 3", n)
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"neither input", Spec{}, false},
		{"both inputs", Spec{Generator: &GenSpec{Family: "torus"}, GraphFile: "x"}, false},
		{"generator ok", Spec{Generator: &GenSpec{Family: "torus"}}, true},
		{"upload ok", Spec{GraphFile: "x"}, true},
		{"bad family", Spec{Generator: &GenSpec{Family: "petersen"}}, false},
		{"bad mode", Spec{Generator: &GenSpec{Family: "torus"}, Mode: "quantum"}, false},
		{"good mode", Spec{Generator: &GenSpec{Family: "torus"}, Mode: "proposed"}, true},
		{"negative parts", Spec{Generator: &GenSpec{Family: "torus"}, Parts: -1}, false},
		{"even clique", Spec{Generator: &GenSpec{Family: "cliques", C: 4}}, false},
		{"rmat too big", Spec{Generator: &GenSpec{Family: "rmat", Vertices: 1 << 30}}, false},
		{"add ok", Spec{Base: "ab", Diff: diffAdd([2]int64{0, 1}, [2]int64{0, 1})}, true},
		{"remove ok", Spec{Base: "ab", Diff: &DiffSpec{Remove: pairs(2)}}, true},
		{"at cap", Spec{Base: "ab", Diff: &DiffSpec{Add: pairs(MaxDiffEdges / 2), Remove: pairs(MaxDiffEdges / 2)}}, true},
		// Only the server knows the base's vertex count, so a huge
		// endpoint passes here and is bounded when the base resolves.
		{"huge endpoint", Spec{Base: "ab", Diff: diffAdd([2]int64{0, 1 << 40})}, true},
		{"missing base", Spec{Diff: diffAdd([2]int64{0, 1})}, false},
		{"missing diff", Spec{Base: "ab"}, false},
		{"empty diff", Spec{Base: "ab", Diff: &DiffSpec{}}, false},
		{"with generator", Spec{Base: "ab", Diff: diffAdd([2]int64{0, 1}), Generator: &GenSpec{Family: "torus"}}, false},
		{"with upload", Spec{Base: "ab", Diff: diffAdd([2]int64{0, 1}), GraphFile: "x"}, false},
		{"parts override", Spec{Base: "ab", Diff: diffAdd([2]int64{0, 1}), Parts: 2}, false},
		{"mode override", Spec{Base: "ab", Diff: diffAdd([2]int64{0, 1}), Mode: "proposed"}, false},
		{"seed override", Spec{Base: "ab", Diff: diffAdd([2]int64{0, 1}), Seed: 7}, false},
		{"kind spec", Spec{Base: "ab", Diff: diffAdd([2]int64{0, 1}), DeBruijn: &jobkind.DeBruijnSpec{}}, false},
		{"over cap across lists", Spec{Base: "ab", Diff: &DiffSpec{Add: pairs(MaxDiffEdges / 2), Remove: pairs(MaxDiffEdges/2 + 1)}}, false},
		{"too many edges", Spec{Base: "ab", Diff: &DiffSpec{Add: pairs(MaxDiffEdges + 1)}}, false},
		{"negative add endpoint", Spec{Base: "ab", Diff: diffAdd([2]int64{-1, 1})}, false},
		{"negative remove endpoint", Spec{Base: "ab", Diff: &DiffSpec{Remove: [][2]int64{{1, -3}}}}, false},
		{"self loop", Spec{Base: "ab", Diff: diffAdd([2]int64{4, 4})}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}

	// A kind without delta support refuses with a structured error.
	s := Spec{Kind: "postman", Base: "ab", Diff: diffAdd([2]int64{0, 1})}
	var se *jobkind.SpecError
	if err := s.Validate(); !errors.As(err, &se) || se.Code != "delta_unsupported" {
		t.Fatalf("postman delta: Validate() = %v, want delta_unsupported", err)
	}

	// Defaults are applied in place.
	g := &GenSpec{Family: "rmat"}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Vertices != 100_000 || g.Degree != 5 || g.Seed != 42 {
		t.Fatalf("rmat defaults not applied: %+v", g)
	}
}
