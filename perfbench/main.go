// Command perfbench is the repository benchmark: it runs one workload
// against the code of the checkout it was built from, checks every
// circuit the program produces, and prints one JSON result line.
//
//	perfbench --workload solve-rmat --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around each layer's public entry point and reports the
// per-layer metrics instead.  README.md lists the workloads, the metrics
// and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Size selects the input scale: "full" is the benchmark proper, "toy"
// runs every code path on tiny inputs in a second or two.
type Size string

const (
	SizeFull Size = "full"
	SizeToy  Size = "toy"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	size    Size
	eulerd  string // eulerd binary (serve-mixed)
	work    string // private scratch directory, removed at exit
}

// outcome is a workload's raw result before it is printed.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	tracer            *tracer
}

type workload func(cfg runConfig) (*outcome, error)

var workloads = map[string]workload{
	"solve-rmat":      runSolveRMAT,
	"solve-outofcore": runSolveOutOfCore,
	"serve-mixed":     runServeMixed,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, runs the workload and prints its result line to
// stdout.  It returns an error, after printing, when a circuit was wrong.
func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fl.String("workload", "", "workload: solve-rmat, solve-outofcore or serve-mixed")
		seed    = fl.Int64("seed", 1, "input seed")
		seconds = fl.Float64("seconds", 15, "measuring time per run")
		trace   = fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		size    = fl.String("size", string(SizeFull), "input scale: full or toy")
		eulerd  = fl.String("eulerd", "", "eulerd binary for serve-mixed")
		work    = fl.String("work", "", "scratch directory (default: a temp dir)")
		traces  = fl.String("traces", "", "directory for the span dump of traced runs")
	)
	if err := fl.Parse(args); err != nil {
		return err
	}
	workload, ok := workloads[*name]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", *name)
	case *size != string(SizeFull) && *size != string(SizeToy):
		return fmt.Errorf("unknown size %q", *size)
	case *trace != 0 && *trace != 1:
		return errors.New("--trace must be 0 or 1")
	case *seconds <= 0:
		return errors.New("--seconds must be positive")
	}

	base := *work
	if base == "" {
		base = os.TempDir()
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return fmt.Errorf("creating work dir: %w", err)
	}
	dir, err := os.MkdirTemp(base, *name+"-")
	if err != nil {
		return fmt.Errorf("creating work dir: %w", err)
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		size: Size(*size), eulerd: *eulerd, work: dir,
	}
	out, err := workload(cfg)
	os.RemoveAll(dir)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if cfg.trace && *traces != "" {
		path := filepath.Join(*traces, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := out.tracer.writeFile(path); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}

	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	for _, m := range want {
		v, ok := out.metrics[m.name]
		if !ok {
			return fmt.Errorf("%s did not measure %s", *name, m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d failed", *name, out.failed, out.attempted)
	}
	return nil
}

// metricDef names a printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is printed by every workload with --trace 0.  Where a metric
// has no direct meaning for a workload, README.md gives the reading it
// takes there (for example latency of a solve is its wall time).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"ok_frac", "ratio"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"slo_met_frac", "ratio"},
}

// perLayer is printed by every workload with --trace 1; a layer the
// workload does not reach reads 0.
var perLayer = []metricDef{
	{"oocgraph.build_ms", "ms"},
	{"oocgraph.page_faults", "count"},
	{"oocgraph.adj_calls", "count"},
	{"oocgraph.faults_per_kadj", "ratio"},
	{"partition.ldg_ms", "ms"},
	{"partition.ldg_alloc_mb", "MiB"},
	{"partition.edge_cut_frac", "ratio"},
	{"partition.max_part_frac", "ratio"},
	{"euler.plan_ms", "ms"},
	{"euler.plan_alloc_mb", "MiB"},
	{"euler.phase1_ms", "ms"},
	{"euler.copy_src_ms", "ms"},
	{"euler.copy_sink_ms", "ms"},
	{"euler.create_obj_ms", "ms"},
	{"euler.peak_state_longs", "count"},
	{"euler.unroll_ms", "ms"},
	{"euler.unroll_alloc_mb", "MiB"},
	{"euler.exec_p50_ms", "ms"},
	{"euler.exec_p95_ms", "ms"},
	{"bsp.wall_ms", "ms"},
	{"bsp.critical_path_ms", "ms"},
	{"bsp.sum_compute_ms", "ms"},
	{"bsp.straggler_wait_ms", "ms"},
	{"bsp.supersteps", "count"},
	{"bsp.messages", "count"},
	{"bsp.msg_mb", "MiB"},
	{"sched.queue_wait_p50_ms", "ms"},
	{"sched.queue_wait_p95_ms", "ms"},
	{"sched.cache_hit_frac", "ratio"},
	{"sched.delta_reused_parts", "count"},
	{"httpapi.submit_p50_ms", "ms"},
	{"httpapi.submit_p95_ms", "ms"},
	{"httpapi.egress_p50_ms", "ms"},
	{"httpapi.egress_mb", "MiB"},
	{"httpapi.rejected_frac", "ratio"},
	{"seq.hierholzer_ms", "ms"},
	{"spill.written_mb", "MiB"},
	{"loadgen.lag_p95_ms", "ms"},
	{"unaccounted_frac", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

// newMetrics returns a metric map with every per-layer metric at 0, so a
// workload only sets the layers it reaches.
func newMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer)+len(endToEnd))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is quantile(xs, q) for a tail percentile, lowered to the
// highest percentile that still has ten samples beyond it, and never
// below the median: a run of a few slow solves reports its median.
func tailQuantile(xs []float64, q float64) float64 {
	return quantile(xs, max(0.5, min(q, 1-10/float64(len(xs)))))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// elapsedSince reports whether a measuring loop started at start has run
// for its budget.
func elapsedSince(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() >= seconds
}
