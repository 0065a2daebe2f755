package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	euler "repro"
	ieuler "repro/internal/euler"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oocgraph"
	"repro/internal/partition"
	"repro/internal/seq"
	"repro/internal/spill"
	"repro/internal/verify"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and only the last set-up is kept.
const setupRepeats = 5

// hierholzerRepeats is how many sequential Hierholzer solves a traced
// run times for the single-machine floor.
const hierholzerRepeats = 3

// timeSetups runs setup setupRepeats times and returns the median time.
// Before each set-up it calls discard, if given, to drop what the last
// one built, and collects the heap: neither belongs to the set-up's time.
func timeSetups(setup func() error, discard func()) (float64, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if discard != nil {
			discard()
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// rmatSize is the solve-rmat input: the paper's Eulerian RMAT family
// (Graph500 A=.57, B=.19, C=.19, largest component, Eulerised).
type rmatSize struct {
	vertices int64 // requested, before taking the largest component
	degree   int
	parts    int32
	limit    time.Duration // a solve slower than this misses the SLO
}

var rmatSizes = map[Size]rmatSize{
	SizeFull: {vertices: 1_000_000, degree: 5, parts: 16, limit: 15 * time.Second},
	SizeToy:  {vertices: 4_000, degree: 5, parts: 4, limit: 5 * time.Second},
}

// reportSolves fills the end-to-end metrics of a solve workload from the
// wall times of its checked solves.
func reportSolves(out *outcome, secs []float64, limit time.Duration) {
	fmt.Fprintf(os.Stderr, "perfbench: solve times (s): %.3f\n", secs)
	met := 0
	for _, v := range secs {
		if v <= limit.Seconds() {
			met++
		}
	}
	out.metrics["solve_s"] = median(secs)
	out.metrics["latency_p50_ms"] = 1000 * median(secs)
	out.metrics["latency_p95_ms"] = 1000 * tailQuantile(secs, 0.95)
	out.metrics["slo_met_frac"] = float64(met) / float64(out.attempted)
	out.metrics["ok_frac"] = float64(out.attempted-out.failed) / float64(out.attempted)
}

// finishTraced adds the metrics a traced solve run derives from all its
// solves, plus the sequential floor on g, and stores the medians.
func finishTraced(out *outcome, layers layerSamples, untraced, traced []float64, g *graph.Graph) error {
	fmt.Fprintf(os.Stderr, "perfbench: untraced solve times (s): %.3f, traced: %.3f\n", untraced, traced)
	layers["euler.exec_p50_ms"] = []float64{1000 * median(traced)}
	layers["euler.exec_p95_ms"] = []float64{1000 * quantile(traced, 0.95)}
	layers["trace_overhead_frac"] = []float64{median(traced)/median(untraced) - 1}
	if err := layers.addHierholzer(out.tracer, g); err != nil {
		return err
	}
	layers.into(out.metrics)
	return nil
}

// layerSamples gathers one value per traced solve for each per-layer
// metric; the reported value is the median.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

func (l layerSamples) into(m map[string]float64) {
	for name, vs := range l {
		m[name] = median(vs)
	}
}

// addReport records the engine's own instrumentation of one run: the
// Fig. 6 user-time split, the Fig. 8 peak state, and the BSP counters.
func (l layerSamples) addReport(r *ieuler.RunReport) {
	var phase1, copySrc, copySink, createObj time.Duration
	for _, p := range r.Parts {
		phase1 += p.Phase1
		copySrc += p.CopySrc
		copySink += p.CopySink
		createObj += p.CreateObj
	}
	var peak int64
	for _, lv := range r.Levels {
		peak = max(peak, lv.CumulativeLongs+lv.ParkedLongs)
	}
	var straggler time.Duration
	for _, st := range r.BSP.Stages {
		straggler += time.Duration(st.ActiveWorkers)*st.MaxCompute - st.SumCompute
	}
	l.add("euler.phase1_ms", ms(phase1))
	l.add("euler.copy_src_ms", ms(copySrc))
	l.add("euler.copy_sink_ms", ms(copySink))
	l.add("euler.create_obj_ms", ms(createObj))
	l.add("euler.peak_state_longs", float64(peak))
	l.add("bsp.wall_ms", ms(r.Wall))
	l.add("bsp.critical_path_ms", ms(r.BSP.CriticalPath))
	l.add("bsp.sum_compute_ms", ms(r.BSP.SumCompute))
	l.add("bsp.straggler_wait_ms", ms(straggler))
	l.add("bsp.supersteps", float64(r.BSP.Supersteps))
	l.add("bsp.messages", float64(r.BSP.Messages))
	l.add("bsp.msg_mb", float64(r.BSP.Bytes)/mib)
}

// addPartition records the quality of an assignment: the share of edges
// cut, and the largest part's share of edge endpoints (the part that
// sets the BSP critical path).
func (l layerSamples) addPartition(g graph.Source, a partition.Assignment) error {
	var cut int64
	endpoints := make([]int64, a.Parts)
	err := g.ForEachEdge(func(e graph.Edge) error {
		pu, pv := a.Of[e.U], a.Of[e.V]
		if pu != pv {
			cut++
		}
		endpoints[pu]++
		endpoints[pv]++
		return nil
	})
	if err != nil {
		return err
	}
	var most int64
	for _, n := range endpoints {
		most = max(most, n)
	}
	m := float64(g.NumEdges())
	l.add("partition.edge_cut_frac", float64(cut)/m)
	l.add("partition.max_part_frac", float64(most)/(2*m))
	return nil
}

// addHierholzer times the sequential floor on g.
func (l layerSamples) addHierholzer(tr *tracer, g *graph.Graph) error {
	start := graph.VertexID(0)
	for start < g.NumVertices() && g.Degree(start) == 0 {
		start++
	}
	for i := 0; i < hierholzerRepeats; i++ {
		var err error
		d := tr.timed("seq.Hierholzer", "floor", 0, func() { _, err = seq.Hierholzer(g, start) })
		if err != nil {
			return fmt.Errorf("hierholzer: %w", err)
		}
		l.add("seq.hierholzer_ms", ms(d))
	}
	return nil
}

// runSolveRMAT solves one Eulerian RMAT graph in memory, one solve at a
// time, and checks every circuit with verify.Circuit.
func runSolveRMAT(cfg runConfig) (*outcome, error) {
	sz := rmatSizes[cfg.size]
	var g *euler.Graph
	setup, err := timeSetups(func() error {
		g, _ = euler.NewEulerianRMAT(sz.vertices, sz.degree, cfg.seed)
		return nil
	}, func() { g = nil })
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: newMetrics()}
	out.metrics["setup_s"] = setup
	steps := make([]euler.Step, 0, g.NumEdges())
	emit := func(s euler.Step) error {
		steps = append(steps, s)
		return nil
	}
	opts := []euler.Option{euler.WithPartitions(sz.parts), euler.WithMode(euler.ModeCurrent)}
	solve := func() (time.Duration, error) {
		steps = steps[:0]
		t0 := time.Now()
		_, err := euler.FindCircuitStream(g, emit, opts...)
		return time.Since(t0), err
	}
	check := func(err error) {
		out.attempted++
		if err == nil {
			err = verify.Circuit(g, steps)
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: solve-rmat solve %d: %v\n", out.attempted, err)
		}
	}
	// One untimed solve first lets the heap grow to its working size.
	if _, err := solve(); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	if err := resetPeakRSS("self"); err != nil {
		return nil, err
	}

	if !cfg.trace {
		var secs []float64
		start := time.Now()
		for out.attempted == 0 || !elapsedSince(start, cfg.seconds) {
			d, err := solve()
			check(err)
			if err == nil {
				secs = append(secs, d.Seconds())
			}
		}
		reportSolves(out, secs, sz.limit)
		out.metrics["peak_rss_mb"], err = peakRSSMiB("self")
		return out, err
	}

	// Traced: alternate the facade solve with the same pipeline called
	// layer by layer, so the difference is the tracing overhead.
	tr := newTracer()
	out.tracer = tr
	layers := layerSamples{}
	var untraced, traced []float64
	start := time.Now()
	for i := 0; len(untraced) == 0 || len(traced) == 0 || !elapsedSince(start, cfg.seconds); i++ {
		if i%2 == 0 {
			d, err := solve()
			check(err)
			untraced = append(untraced, d.Seconds())
			continue
		}
		steps = steps[:0]
		job := fmt.Sprintf("solve-%d", i)
		root := tr.begin("solve", job, 0)
		var a partition.Assignment
		alloc := allocMiB()
		layers.add("partition.ldg_ms", ms(tr.timed("partition.LDG", job, root, func() {
			a = partition.LDG(g, sz.parts, ieuler.DefaultSeed)
		})))
		layers.add("partition.ldg_alloc_mb", allocMiB()-alloc)
		var res *ieuler.Result
		var err error
		tr.timed("euler.Run", job, root, func() {
			res, err = ieuler.Run(g, a, ieuler.Config{Mode: ieuler.ModeCurrent})
		})
		if err == nil {
			alloc = allocMiB()
			layers.add("euler.unroll_ms", ms(tr.timed("euler.Registry.Unroll", job, root, func() {
				err = res.Registry.Unroll(emit)
			})))
			layers.add("euler.unroll_alloc_mb", allocMiB()-alloc)
		}
		d := tr.end(root)
		tr.timed("verify.Circuit", job, 0, func() { check(err) })
		if err != nil {
			continue
		}
		traced = append(traced, d.Seconds())
		layers.add("unaccounted_frac", tr.uncoveredFrac(root))
		layers.addReport(res.Report)
		res = nil
		if err := layers.addPartition(g, a); err != nil {
			return nil, err
		}
		// BuildPlan runs inside euler.Run; a second, separate call times it.
		alloc = allocMiB()
		layers.add("euler.plan_ms", ms(tr.timed("euler.BuildPlan", job, 0, func() {
			_, _, err = ieuler.BuildPlan(g, a, ieuler.Config{Mode: ieuler.ModeCurrent})
		})))
		layers.add("euler.plan_alloc_mb", allocMiB()-alloc)
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
	}
	return out, finishTraced(out, layers, untraced, traced, g)
}

// oocSize is the solve-outofcore input: a torus streamed to an EULGRPH1
// file and solved through a paged CSR whose page budget is smaller than
// its adjacency.
type oocSize struct {
	width, height int64
	parts         int32
	memBytes      int64 // resident page budget
	pageHalves    int64 // 0 = the pager's default page size
	limit         time.Duration
}

var oocSizes = map[Size]oocSize{
	SizeFull: {width: 512, height: 512, parts: 16, memBytes: 4 << 20, limit: 20 * time.Second},
	SizeToy:  {width: 48, height: 48, parts: 4, memBytes: 4 * 1024 * 16, pageHalves: 1024, limit: 5 * time.Second},
}

// stepHash digests a circuit in emission order.
type stepHash struct {
	h     hash.Hash
	buf   []byte
	steps int64
}

func newStepHash() *stepHash { return &stepHash{h: sha256.New(), buf: make([]byte, 0, 64<<10)} }

func (s *stepHash) add(st graph.Step) error {
	s.buf = binary.LittleEndian.AppendUint64(s.buf, uint64(st.Edge))
	s.buf = binary.LittleEndian.AppendUint64(s.buf, uint64(st.From))
	s.buf = binary.LittleEndian.AppendUint64(s.buf, uint64(st.To))
	if len(s.buf) >= 64<<10 {
		s.h.Write(s.buf)
		s.buf = s.buf[:0]
	}
	s.steps++
	return nil
}

func (s *stepHash) sum() string {
	s.h.Write(s.buf)
	s.buf = s.buf[:0]
	return fmt.Sprintf("%x/%d", s.h.Sum(nil), s.steps)
}

// countingSource counts Adj calls on the way to the paged graph.
type countingSource struct {
	graph.Source
	adj int64
}

func (c *countingSource) Adj(v graph.VertexID) []graph.Half {
	c.adj++
	return c.Source.Adj(v)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// runSolveOutOfCore solves a torus from disk through the paged CSR; the
// seed picks the order of the edges in the file.  Every circuit must hash
// the same as an in-memory FindCircuitStream of the same graph.
func runSolveOutOfCore(cfg runConfig) (*outcome, error) {
	sz := oocSizes[cfg.size]
	path := filepath.Join(cfg.work, "torus.eulgrph")
	opts := []euler.Option{euler.WithPartitions(sz.parts), euler.WithMode(euler.ModeCurrent)}
	var want string
	setup, err := timeSetups(func() error {
		edges := shuffledTorus(sz.width, sz.height, cfg.seed)
		n := sz.width * sz.height
		sw, err := graph.NewStreamWriter(path, uint64(n), uint64(len(edges)))
		if err != nil {
			return err
		}
		b := graph.NewBuilder(n, len(edges))
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
			if err := sw.Append(e[0], e[1]); err != nil {
				sw.Close()
				return err
			}
		}
		if err := sw.Close(); err != nil {
			return err
		}
		ref := newStepHash()
		if _, err := euler.FindCircuitStream(b.Build(), ref.add, opts...); err != nil {
			return fmt.Errorf("reference solve: %w", err)
		}
		want = ref.sum()
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: newMetrics()}
	out.metrics["setup_s"] = setup
	build := oocgraph.BuildOptions{MemBytes: sz.memBytes, PageHalves: sz.pageHalves}
	check := func(err error, got string) {
		out.attempted++
		if err == nil && got != want {
			err = fmt.Errorf("circuit %s differs from the in-memory solve's %s", got, want)
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: solve-outofcore solve %d: %v\n", out.attempted, err)
		}
	}
	// solve runs the facade's out-of-core path in a fresh directory: the
	// paged CSR build, the input check and the solve.
	n := 0
	solve := func() (time.Duration, string, error) {
		n++
		dir := filepath.Join(cfg.work, fmt.Sprintf("solve-%d", n))
		defer os.RemoveAll(dir)
		build.Dir = dir
		h := newStepHash()
		t0 := time.Now()
		err := os.MkdirAll(dir, 0o755)
		var pg *oocgraph.PagedGraph
		if err == nil {
			pg, err = oocgraph.BuildPaged(path, build)
		}
		if err == nil {
			defer pg.Close()
			err = euler.CheckInputSource(pg)
		}
		if err == nil {
			_, err = euler.FindCircuitStreamSource(pg, filepath.Join(dir, "spill"), h.add, opts...)
		}
		return time.Since(t0), h.sum(), err
	}
	// One untimed solve first lets the heap grow to its working size.
	if _, _, err := solve(); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	if err := resetPeakRSS("self"); err != nil {
		return nil, err
	}

	if !cfg.trace {
		var secs []float64
		start := time.Now()
		for out.attempted == 0 || !elapsedSince(start, cfg.seconds) {
			d, sum, err := solve()
			check(err, sum)
			if err == nil {
				secs = append(secs, d.Seconds())
			}
		}
		reportSolves(out, secs, sz.limit)
		out.metrics["peak_rss_mb"], err = peakRSSMiB("self")
		return out, err
	}

	tr := newTracer()
	out.tracer = tr
	layers := layerSamples{}
	var untraced, traced []float64
	start := time.Now()
	for i := 0; len(untraced) == 0 || len(traced) == 0 || !elapsedSince(start, cfg.seconds); i++ {
		if i%2 == 0 {
			d, sum, err := solve()
			check(err, sum)
			untraced = append(untraced, d.Seconds())
			continue
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("traced-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		build.Dir = dir
		spillDir := filepath.Join(dir, "spill")
		h := newStepHash()
		job := fmt.Sprintf("solve-%d", i)
		faults0, _, _ := oocgraph.Stats()
		root := tr.begin("solve", job, 0)
		var pg *oocgraph.PagedGraph
		var err error
		layers.add("oocgraph.build_ms", ms(tr.timed("oocgraph.BuildPaged", job, root, func() {
			pg, err = oocgraph.BuildPaged(path, build)
		})))
		if err != nil {
			return nil, err
		}
		src := &countingSource{Source: pg}
		tr.timed("verify.EulerianSource", job, root, func() { err = verify.EulerianSource(src) })
		var a partition.Assignment
		alloc := allocMiB()
		layers.add("partition.ldg_ms", ms(tr.timed("partition.LDG", job, root, func() {
			a = partition.LDG(src, sz.parts, ieuler.DefaultSeed)
		})))
		layers.add("partition.ldg_alloc_mb", allocMiB()-alloc)
		// The stores and Run configuration FindCircuitStreamSource uses.
		var res *ieuler.Result
		var store, initStore *spill.DiskStore
		if err == nil {
			err = os.MkdirAll(spillDir, 0o755)
		}
		if err == nil {
			store, err = spill.NewDiskStore(filepath.Join(spillDir, ieuler.SpillLogName))
		}
		if err == nil {
			initStore, err = spill.NewDiskStore(filepath.Join(spillDir, "leaf-init.log"))
		}
		if err == nil {
			tr.timed("euler.Run", job, root, func() {
				res, err = ieuler.Run(src, a, ieuler.Config{
					Mode: ieuler.ModeCurrent, Store: store, Sequential: true,
					InitStore: initStore, ScratchDir: spillDir,
				})
			})
		}
		if err == nil {
			alloc = allocMiB()
			layers.add("euler.unroll_ms", ms(tr.timed("euler.Registry.Unroll", job, root, func() {
				err = res.Registry.Unroll(h.add)
			})))
			layers.add("euler.unroll_alloc_mb", allocMiB()-alloc)
		}
		d := tr.end(root)
		for _, s := range []*spill.DiskStore{store, initStore} {
			if s != nil {
				s.Close()
			}
		}
		faults1, _, _ := oocgraph.Stats()
		check(err, h.sum())
		if err == nil {
			traced = append(traced, d.Seconds())
			layers.add("unaccounted_frac", tr.uncoveredFrac(root))
			layers.addReport(res.Report)
			res = nil
			layers.add("oocgraph.page_faults", float64(faults1-faults0))
			layers.add("oocgraph.adj_calls", float64(src.adj))
			layers.add("oocgraph.faults_per_kadj", float64(faults1-faults0)/(float64(src.adj)/1000))
			layers.add("spill.written_mb", float64(dirBytes(spillDir))/mib)
			err = layers.addPartition(pg, a)
		}
		if err == nil {
			err = timePlan(tr, layers, job, src, a, filepath.Join(dir, "plan"))
		}
		pg.Close()
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
	}
	return out, finishTraced(out, layers, untraced, traced, euler.NewTorus(sz.width, sz.height))
}

// shuffledTorus returns the edges of the width×height torus in an order,
// and with orientations, drawn from seed.  The seed changes edge IDs and
// the circuit, not the vertex layout the pager and partitioner see.
func shuffledTorus(width, height, seed int64) [][2]int64 {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int64
	gen.StreamTorus(width, height, func(u, v graph.VertexID) error {
		if rng.Intn(2) == 1 {
			u, v = v, u
		}
		edges = append(edges, [2]int64{u, v})
		return nil
	})
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// timePlan times a separate out-of-core BuildPlan call (euler.Run builds
// its plan internally), writing leaf states to a throwaway store in dir.
func timePlan(tr *tracer, layers layerSamples, job string, src graph.Source, a partition.Assignment, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	initStore, err := spill.NewDiskStore(filepath.Join(dir, "leaf-init.log"))
	if err != nil {
		return err
	}
	defer initStore.Close()
	alloc := allocMiB()
	layers.add("euler.plan_ms", ms(tr.timed("euler.BuildPlan", job, 0, func() {
		_, _, err = ieuler.BuildPlan(src, a, ieuler.Config{
			Mode: ieuler.ModeCurrent, Sequential: true, InitStore: initStore, ScratchDir: dir,
		})
	})))
	layers.add("euler.plan_alloc_mb", allocMiB()-alloc)
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	return nil
}
