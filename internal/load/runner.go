package load

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/jobkind"
	"repro/internal/service/job"
	"repro/internal/stats"
)

// Env is everything a scenario run needs from its surroundings: the
// target server, an optional standalone reference, and an optional chaos
// hook.  The process harness builds it from spawned eulerd processes;
// tests point it at in-process httptest servers.
type Env struct {
	// Client targets the scenario's serving process (standalone server
	// or cluster coordinator).
	Client *Client
	// Solo targets the standalone reference server for CompareSolo
	// scenarios; nil otherwise.
	Solo *Client
	// KillWorker kills one live worker process; nil when the topology
	// has none to kill.
	KillWorker func() error
	// Logf receives progress diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

func (e Env) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// jobResult is one synthetic client's account of one job.
type jobResult struct {
	submitAt  time.Time
	tenant    string
	kind      string
	state     job.State
	latency   time.Duration // submit → terminal observation
	queueWait time.Duration // created → started, from server timestamps
	exec      time.Duration // started → finished, from server timestamps
	steps     int64
	attempts  int  // cluster execution attempts, from the job snapshot
	degraded  bool // the coordinator fell back to in-process execution
	executed  bool // the server actually ran it (vs. served from cache)
	throttled bool // admission-rejected on a MayThrottle template
	failed    bool // counts against the scenario's error budget
	verifyErr error
	diffErr   error
	err       error // transport/infra error behind failed
}

// RunScenario drives one scenario against env and folds the measurements
// into the shared report schema.  The returned error is a hard failure —
// a verification mismatch, a blown error budget, or infrastructure
// trouble — independent of any baseline comparison.
func RunScenario(ctx context.Context, sc Scenario, env Env) (bench.ScenarioResult, error) {
	if err := sc.Validate(); err != nil {
		return bench.ScenarioResult{}, err
	}
	if sc.DeltaStorm {
		return runDeltaStorm(ctx, sc, env)
	}
	timeout := sc.JobTimeout
	if timeout <= 0 {
		timeout = 120 * time.Second
	}

	// Verification inputs: each template's validated spec (defaults
	// applied, exactly as the server resolves it), its kind, and — for
	// graph-backed kinds — the input graph rebuilt locally once.
	specs := make([]job.Spec, len(sc.Templates))
	kinds := make([]jobkind.Kind, len(sc.Templates))
	graphs := make([]*graph.Graph, len(sc.Templates))
	for i, tpl := range sc.Templates {
		// Validate a deep copy: defaults are written in place and the
		// template must reach the server exactly as declared.
		spec := tpl.Spec.Clone()
		if err := spec.Validate(); err != nil {
			return bench.ScenarioResult{}, fmt.Errorf("validating template %d: %w", i, err)
		}
		specs[i] = spec
		kinds[i] = jobkind.MustGet(spec.Kind)
		if !kinds[i].NeedsGraph() {
			continue
		}
		g, err := spec.Generator.Build()
		if err != nil {
			return bench.ScenarioResult{}, fmt.Errorf("building template %d graph: %w", i, err)
		}
		graphs[i] = g
	}

	var (
		doneCount  atomic.Int64
		chaosOnce  sync.Once
		chaosErr   error
		killedAt   atomic.Int64 // unix nanos; 0 = not yet
		notes      []string
		notesMu    sync.Mutex
		chaosAfter = int64(sc.Jobs / 3)
	)
	if chaosAfter < 1 {
		chaosAfter = 1
	}
	addNote := func(format string, args ...any) {
		notesMu.Lock()
		notes = append(notes, fmt.Sprintf(format, args...))
		notesMu.Unlock()
	}

	maybeChaos := func() {
		if !sc.ChaosKillWorker || doneCount.Load() < chaosAfter {
			return
		}
		chaosOnce.Do(func() {
			if env.KillWorker == nil {
				chaosErr = fmt.Errorf("scenario %s needs a worker to kill but the environment has none", sc.Name)
				return
			}
			if err := env.KillWorker(); err != nil {
				chaosErr = fmt.Errorf("killing worker: %w", err)
				return
			}
			killedAt.Store(time.Now().UnixNano())
			addNote("chaos: killed one worker after %d completed job(s)", doneCount.Load())
			env.logf("%s: chaos kill fired", sc.Name)
		})
	}

	results := make([]jobResult, sc.Jobs)
	runOne := func(i int) {
		res := &results[i]
		res.submitAt = time.Now()
		jobCtx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		tplIdx := i % len(sc.Templates)
		tpl := sc.Templates[tplIdx]
		g := graphs[tplIdx]
		res.tenant = tpl.Tenant
		res.kind = specs[tplIdx].Kind

		opts := SubmitOpts{Tenant: tpl.Tenant, Class: tpl.Class}
		var snap job.Snapshot
		var err error
		if tpl.Upload {
			snap, err = env.Client.SubmitUploadAs(g, tpl.Spec, opts)
		} else {
			snap, err = env.Client.SubmitSpecAs(tpl.Spec, opts)
		}
		if err != nil {
			if apiErr, ok := Throttled(err); ok && tpl.MayThrottle {
				// Expected back-pressure — but only well-formed
				// back-pressure: a 429 without a Retry-After hint is a
				// server bug, not throttling.
				res.throttled = true
				if apiErr.RetryAfter <= 0 {
					res.failed, res.err = true, fmt.Errorf("throttled without a Retry-After hint: %w", err)
				}
				return
			}
			res.failed, res.err = true, fmt.Errorf("submit: %w", err)
			return
		}
		id := snap.ID

		switch sc.Behavior {
		case BehaviorDeleteWhileRunning:
			// Catch the job mid-flight; winning the race (already done)
			// is fine, failing is not.
			if snap, err = env.Client.WaitState(jobCtx, id, job.StateRunning, 0); err != nil {
				res.failed, res.err = true, err
				return
			}
			if !snap.State.Terminal() {
				if _, err := env.Client.Cancel(id); err != nil {
					res.failed, res.err = true, fmt.Errorf("cancel: %w", err)
					return
				}
			}
			snap, err = env.Client.WaitTerminal(jobCtx, id, 0)
			res.finish(snap, time.Since(res.submitAt))
			if err != nil {
				res.failed, res.err = true, err
				return
			}
			if snap.State != job.StateCancelled && snap.State != job.StateDone {
				res.failed, res.err = true, fmt.Errorf("job %s ended %s (%s)", id, snap.State, snap.Error)
			}
			return

		default:
			snap, err = env.Client.WaitTerminal(jobCtx, id, 0)
			res.finish(snap, time.Since(res.submitAt))
			if err != nil {
				res.failed, res.err = true, err
				return
			}
			if snap.State != job.StateDone {
				res.failed, res.err = true, fmt.Errorf("job %s ended %s (%s)", id, snap.State, snap.Error)
				return
			}
			if sc.Behavior == BehaviorCancelMidStream {
				// An impatient consumer walks away mid-stream; the
				// server must survive and still serve the full read.
				if _, err := env.Client.CircuitPartial(jobCtx, id, 64); err != nil {
					res.failed, res.err = true, fmt.Errorf("partial read: %w", err)
					return
				}
			}
			// One full stream serves both verification and, for
			// CompareSolo, the byte-identity diff.
			raw, err := env.Client.CircuitRaw(jobCtx, id)
			if err != nil {
				res.failed, res.err = true, fmt.Errorf("streaming circuit: %w", err)
				return
			}
			steps, err := ParseResult(res.kind, raw)
			if err != nil {
				res.failed, res.err = true, fmt.Errorf("streaming circuit: %w", err)
				return
			}
			res.steps = int64(len(steps))
			if err := kinds[tplIdx].Verify(specs[tplIdx].KindRequest(), g, steps); err != nil {
				res.verifyErr = err
				res.failed = true
				return
			}
			if sc.CompareSolo {
				res.diffErr = compareSolo(jobCtx, env, tpl, raw)
				if res.diffErr != nil {
					res.failed = true
				}
			}
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	submitted := 0
	if sc.OpenLoop() {
		interval := time.Duration(float64(time.Second) / sc.RatePerSec)
		for i := 0; i < sc.Jobs; i++ {
			if i > 0 {
				select {
				case <-time.After(interval):
				case <-ctx.Done():
				}
			}
			if ctx.Err() != nil {
				// Interrupted: stop submitting; jobs already in flight
				// still drain below.
				break
			}
			submitted++
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runOne(i)
				doneCount.Add(1)
				maybeChaos()
			}(i)
		}
	} else {
		sem := make(chan struct{}, sc.Concurrency)
		for i := 0; i < sc.Jobs; i++ {
			if ctx.Err() != nil {
				break
			}
			submitted++
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer func() { <-sem; wg.Done() }()
				runOne(i)
				doneCount.Add(1)
				maybeChaos()
			}(i)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	// The report accounts only for jobs that actually ran; an interrupt
	// fails the run below rather than skewing the metrics.
	results = results[:submitted]

	res := summarize(sc, results, elapsed, killedAt.Load(), notes)
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("scenario %s interrupted after %d of %d jobs: %w", sc.Name, submitted, sc.Jobs, err)
	}
	if chaosErr != nil {
		return res, chaosErr
	}
	if sc.ChaosKillWorker && killedAt.Load() == 0 {
		return res, fmt.Errorf("scenario %s never fired its chaos kill", sc.Name)
	}
	if err := checkSchedContracts(sc, results, env, &res); err != nil {
		return res, err
	}
	if err := checkClusterContracts(sc, results, env, &res); err != nil {
		return res, err
	}
	if err := recordWireMetrics(sc, env, &res); err != nil {
		return res, err
	}
	return res, hardFailures(sc, results)
}

// recordWireMetrics folds the server's wire-cost counters into the
// report: circuit egress bytes for every scenario, and cluster frame
// bytes when the scenario ran a cluster topology.  Deterministic
// scenarios gate both lower-is-better, so a codec or egress regression
// fails the perf gate like a latency regression would; chaos scenarios
// report them as Info, since retries and fallbacks legitimately move
// extra bytes.
func recordWireMetrics(sc Scenario, env Env, res *bench.ScenarioResult) error {
	m, err := env.Client.Metrics()
	if err != nil {
		return fmt.Errorf("scenario %s: scraping wire metrics: %w", sc.Name, err)
	}
	num := func(key string) (float64, error) {
		v, ok := m[key].(float64)
		if !ok {
			return 0, fmt.Errorf("scenario %s: metric %s missing or non-numeric (%v)", sc.Name, key, m[key])
		}
		return v, nil
	}
	gauge := func(v float64) bench.Metric {
		if sc.ChaosKillWorker || len(sc.WorkerFaults) > 0 || sc.ExpectRetry || sc.ExpectDegraded {
			return bench.Info(v, "bytes")
		}
		return bench.LowerBetter(v, "bytes", 0.15, 2048)
	}
	egress, err := num("egress_bytes")
	if err != nil {
		return err
	}
	res.Metrics["egress_bytes"] = gauge(egress)
	// Pager faults are deterministic for a given scenario (the same
	// Adj calls against the same page budget), so scenarios that page
	// gate them lower-is-better: a partitioner or plan pass that reads
	// adjacency out of page order fails the perf gate.  Scenarios that
	// never page read zero and record it as Info.
	if faults, err := num("graph_page_faults"); err == nil {
		res.Metrics["graph_page_faults"] = bench.Info(faults, "count")
		if faults > 0 {
			res.Metrics["graph_page_faults"] = bench.LowerBetter(faults, "count", 0.1, 100)
		}
	}
	if sc.Topology == TopoCluster {
		wire, err := num("cluster_wire_bytes")
		if err != nil {
			return err
		}
		res.Metrics["cluster_wire_bytes"] = gauge(wire)
	}
	return nil
}

// checkClusterContracts enforces the fault-tolerance scenario
// assertions (ExpectRetry, ExpectDegraded) against the coordinator's
// /v1/cluster counters and the per-job snapshots, and folds the
// counters into the report.
func checkClusterContracts(sc Scenario, results []jobResult, env Env, res *bench.ScenarioResult) error {
	if !sc.ExpectRetry && !sc.ExpectDegraded {
		return nil
	}
	m, err := env.Client.Cluster()
	if err != nil {
		return fmt.Errorf("scenario %s: scraping cluster status: %w", sc.Name, err)
	}
	num := func(key string) (float64, error) {
		v, ok := m[key].(float64)
		if !ok {
			return 0, fmt.Errorf("scenario %s: cluster counter %s missing or non-numeric (%v)", sc.Name, key, m[key])
		}
		return v, nil
	}
	retried, err := num("jobs_retried")
	if err != nil {
		return err
	}
	replans, err := num("replans")
	if err != nil {
		return err
	}
	degraded, err := num("degraded_runs")
	if err != nil {
		return err
	}
	res.Metrics["cluster_jobs_retried"] = bench.Info(retried, "count")
	res.Metrics["cluster_replans"] = bench.Info(replans, "count")
	res.Metrics["cluster_degraded_runs"] = bench.Info(degraded, "count")
	if sc.ExpectRetry {
		if retried < 1 {
			return fmt.Errorf("scenario %s expected at least one retried job, coordinator reports %v", sc.Name, retried)
		}
		if replans < 1 {
			return fmt.Errorf("scenario %s expected at least one re-plan, coordinator reports %v", sc.Name, replans)
		}
		// The recovery must also be visible to clients: some done job's
		// snapshot records more than one attempt.
		multi := false
		for i := range results {
			multi = multi || results[i].attempts > 1
		}
		if !multi {
			return fmt.Errorf("scenario %s: no job snapshot recorded a second attempt", sc.Name)
		}
	}
	if sc.ExpectDegraded {
		if degraded < 1 {
			return fmt.Errorf("scenario %s expected a degraded fallback run, coordinator reports %v", sc.Name, degraded)
		}
		flagged := false
		for i := range results {
			flagged = flagged || results[i].degraded
		}
		if !flagged {
			return fmt.Errorf("scenario %s: no job snapshot carries the degraded flag", sc.Name)
		}
	}
	return nil
}

// checkSchedContracts enforces the scheduler-specific scenario
// assertions (ExpectThrottle, ExpectDedup) and folds the server's
// dedup counters into the report.
func checkSchedContracts(sc Scenario, results []jobResult, env Env, res *bench.ScenarioResult) error {
	if sc.ExpectThrottle {
		throttled := 0
		for i := range results {
			if results[i].throttled {
				throttled++
			}
		}
		if throttled == 0 {
			return fmt.Errorf("scenario %s expected admission throttling but no submission was rejected", sc.Name)
		}
	}
	if !sc.ExpectDedup {
		return nil
	}
	m, err := env.Client.Metrics()
	if err != nil {
		return fmt.Errorf("scenario %s: scraping dedup metrics: %w", sc.Name, err)
	}
	num := func(key string) (float64, error) {
		v, ok := m[key].(float64)
		if !ok {
			return 0, fmt.Errorf("scenario %s: metric %s missing or non-numeric (%v)", sc.Name, key, m[key])
		}
		return v, nil
	}
	started, err := num("jobs_started")
	if err != nil {
		return err
	}
	hits, err := num("cache_hits")
	if err != nil {
		return err
	}
	coalesced, err := num("coalesced_jobs")
	if err != nil {
		return err
	}
	res.Metrics["server_jobs_started"] = bench.LowerBetter(started, "count", 0, 0)
	res.Metrics["dedup_hits"] = bench.Info(hits+coalesced, "count")
	if started != 1 {
		return fmt.Errorf("scenario %s: %v executions for %d identical submissions, want exactly 1", sc.Name, started, len(results))
	}
	if want := float64(len(results) - 1); hits+coalesced < want {
		return fmt.Errorf("scenario %s: %v cache/coalesce hits for %d submissions, want %v", sc.Name, hits+coalesced, len(results), want)
	}
	if sc.DedupKind != "" {
		// The dedup contract must hold on the per-kind ledger too: the
		// named kind's own started counter is exactly 1, proving the
		// coalescing happened inside that kind rather than globally by
		// accident.
		kindsAny, ok := m["kinds"].(map[string]any)
		if !ok {
			return fmt.Errorf("scenario %s: metric kinds missing or malformed (%v)", sc.Name, m["kinds"])
		}
		entry, ok := kindsAny[sc.DedupKind].(map[string]any)
		if !ok {
			return fmt.Errorf("scenario %s: metrics carry no kind %q (%v)", sc.Name, sc.DedupKind, kindsAny)
		}
		kindStarted, ok := entry["started"].(float64)
		if !ok {
			return fmt.Errorf("scenario %s: kinds.%s.started missing or non-numeric (%v)", sc.Name, sc.DedupKind, entry["started"])
		}
		res.Metrics["kind_"+sc.DedupKind+"_jobs_started"] = bench.LowerBetter(kindStarted, "count", 0, 0)
		if kindStarted != 1 {
			return fmt.Errorf("scenario %s: %v %s executions for %d identical submissions, want exactly 1",
				sc.Name, kindStarted, sc.DedupKind, len(results))
		}
	}
	return nil
}

// finish records the terminal snapshot's timings.  A job the server
// served from its result cache never started, so it contributes no
// queue-wait/exec samples (a cache-heavy scenario would otherwise
// dilute those distributions with zeros).
func (r *jobResult) finish(snap job.Snapshot, latency time.Duration) {
	r.state = snap.State
	r.latency = latency
	r.steps = snap.Steps
	r.attempts = snap.Attempts
	r.degraded = snap.Degraded
	if snap.Started != nil {
		r.executed = true
		r.queueWait = snap.Started.Sub(snap.Created)
		if snap.Finished != nil {
			r.exec = snap.Finished.Sub(*snap.Started)
		}
	}
}

// compareSolo replays the template on the standalone reference and
// requires a circuit stream byte-identical to clusterRaw.
func compareSolo(ctx context.Context, env Env, tpl JobTemplate, clusterRaw []byte) error {
	if env.Solo == nil {
		return fmt.Errorf("scenario compares against a standalone server but none is running")
	}
	snap, err := env.Solo.SubmitSpec(tpl.Spec)
	if err != nil {
		return fmt.Errorf("solo submit: %w", err)
	}
	snap, err = env.Solo.WaitTerminal(ctx, snap.ID, 0)
	if err != nil {
		return err
	}
	if snap.State != job.StateDone {
		return fmt.Errorf("solo job ended %s (%s)", snap.State, snap.Error)
	}
	soloRaw, err := env.Solo.CircuitRaw(ctx, snap.ID)
	if err != nil {
		return err
	}
	if !bytes.Equal(soloRaw, clusterRaw) {
		return fmt.Errorf("cluster circuit differs from standalone circuit (%d vs %d bytes)",
			len(clusterRaw), len(soloRaw))
	}
	return nil
}

// hardFailures folds per-job outcomes into the scenario's pass/fail
// verdict: any verification or diff mismatch fails outright; other
// failures are held to the error budget.
func hardFailures(sc Scenario, results []jobResult) error {
	var verifyErrs, failures int
	var firstErr error
	for i := range results {
		r := &results[i]
		if r.verifyErr != nil || r.diffErr != nil {
			verifyErrs++
			if firstErr == nil {
				firstErr = r.verifyErr
				if firstErr == nil {
					firstErr = r.diffErr
				}
			}
		}
		if r.failed {
			failures++
			if firstErr == nil {
				firstErr = r.err
			}
		}
	}
	if verifyErrs > 0 {
		return fmt.Errorf("scenario %s: %d circuit verification failure(s): %v", sc.Name, verifyErrs, firstErr)
	}
	if len(results) == 0 {
		return fmt.Errorf("scenario %s: no jobs ran", sc.Name)
	}
	rate := float64(failures) / float64(len(results))
	if rate > sc.ErrorBudget {
		return fmt.Errorf("scenario %s: error rate %.2f exceeds budget %.2f (first failure: %v)",
			sc.Name, rate, sc.ErrorBudget, firstErr)
	}
	return nil
}

// summarize converts raw job results into the report's metric set with
// the regression-band tolerances the perf gate reads back out of the
// baseline.
func summarize(sc Scenario, results []jobResult, elapsed time.Duration, killedAtNanos int64, notes []string) bench.ScenarioResult {
	var (
		done, cancelled, failures, verifyFailures, diffs, throttled int
		stepsTotal                                                  int64
		latMS, waitMS, execMS                                       []float64
		postChaosSuccess                                            float64
		tenantLatMS                                                 = map[string][]float64{}
		kindLatMS                                                   = map[string][]float64{}
	)
	for i := range results {
		r := &results[i]
		switch r.state {
		case job.StateDone:
			done++
		case job.StateCancelled:
			cancelled++
		}
		if r.failed {
			failures++
		}
		if r.throttled {
			throttled++
		}
		if r.verifyErr != nil {
			verifyFailures++
		}
		if r.diffErr != nil {
			diffs++
		}
		stepsTotal += r.steps
		if r.state == job.StateDone {
			ms := float64(r.latency) / float64(time.Millisecond)
			latMS = append(latMS, ms)
			if r.executed {
				waitMS = append(waitMS, float64(r.queueWait)/float64(time.Millisecond))
				execMS = append(execMS, float64(r.exec)/float64(time.Millisecond))
			}
			if r.tenant != "" {
				tenantLatMS[r.tenant] = append(tenantLatMS[r.tenant], ms)
			}
			if r.kind != "" {
				kindLatMS[r.kind] = append(kindLatMS[r.kind], ms)
			}
			if killedAtNanos != 0 && r.submitAt.UnixNano() > killedAtNanos {
				postChaosSuccess = 1
			}
		}
	}
	lat := stats.Summarize(latMS)
	wait := stats.Summarize(waitMS)
	execS := stats.Summarize(execMS)
	errRate := 0.0
	if len(results) > 0 {
		errRate = float64(failures) / float64(len(results))
	}
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = math.SmallestNonzeroFloat64
	}

	// Throughput/latency bands are deliberately loose: the baseline is
	// recorded on one machine and gated on another, and short scenarios
	// finish in tens of milliseconds where scheduler noise alone moves
	// throughput several-x between runs — so only order-of-magnitude
	// drift should trip these (compare's -slack widens them further;
	// the latency gates' absolute floors backstop them).
	throughput := bench.HigherBetter(float64(done)/secs, "jobs/s", 0.45, 0.2)
	p50 := bench.LowerBetter(lat.P50, "ms", 1.5, 250)
	p95 := bench.LowerBetter(lat.P95, "ms", 1.5, 500)
	stepsRate := bench.HigherBetter(float64(stepsTotal)/secs, "steps/s", 0.45, 100)
	if sc.Behavior == BehaviorDeleteWhileRunning {
		// Done-job counts here depend on the cancel race, so the sample
		// behind these metrics is not stable run to run; record them
		// without a gate.
		throughput = bench.Info(throughput.Value, throughput.Unit)
		p50 = bench.Info(p50.Value, p50.Unit)
		p95 = bench.Info(p95.Value, p95.Unit)
		stepsRate = bench.Info(stepsRate.Value, stepsRate.Unit)
	}
	m := map[string]bench.Metric{
		"jobs":                    bench.Info(float64(len(results)), "count"),
		"jobs_done":               bench.Info(float64(done), "count"),
		"jobs_cancelled":          bench.Info(float64(cancelled), "count"),
		"error_rate":              bench.LowerBetter(errRate, "frac", 0, math.Max(sc.ErrorBudget, 0.01)),
		"throughput_jobs_per_sec": throughput,
		"latency_p50_ms":          p50,
		"latency_p95_ms":          p95,
		"latency_max_ms":          bench.Info(lat.Max, "ms"),
		"queue_wait_p95_ms":       bench.Info(wait.P95, "ms"),
		"exec_p50_ms":             bench.Info(execS.P50, "ms"),
		"steps_total":             bench.Info(float64(stepsTotal), "count"),
		"steps_per_sec":           stepsRate,
		"verify_failures":         bench.LowerBetter(float64(verifyFailures), "count", 0, 0),
		"wall_seconds":            bench.Info(elapsed.Seconds(), "s"),
	}
	if sc.CompareSolo {
		m["circuit_diffs"] = bench.LowerBetter(float64(diffs), "count", 0, 0)
	}
	if sc.ChaosKillWorker {
		m["post_chaos_success"] = bench.HigherBetter(postChaosSuccess, "bool", 0, 0)
	}
	if throttled > 0 || sc.ExpectThrottle {
		m["throttled_jobs"] = bench.Info(float64(throttled), "count")
	}
	// Per-tenant latency: tenants the scenario protects (no template of
	// theirs may throttle) gate their p95 inside an error-budget band;
	// tenants that are expected to be throttled record theirs as
	// informational, since their sample shifts with how much was
	// admitted.
	mayThrottle := map[string]bool{}
	for _, tpl := range sc.Templates {
		if tpl.Tenant != "" && tpl.MayThrottle {
			mayThrottle[tpl.Tenant] = true
		}
	}
	for tenant, ms := range tenantLatMS {
		p95 := stats.Summarize(ms).P95
		key := "tenant_" + tenant + "_latency_p95_ms"
		if mayThrottle[tenant] {
			m[key] = bench.Info(p95, "ms")
		} else {
			m[key] = bench.LowerBetter(p95, "ms", 1.5, 2000)
		}
	}
	// Per-kind latency: legacy all-euler scenarios keep their historical
	// metric set; once a scenario mixes in another workload kind, every
	// kind (euler included) gates its own p95.
	if len(kindLatMS) > 1 || (len(kindLatMS) == 1 && kindLatMS[jobkind.DefaultName] == nil) {
		for kind, ms := range kindLatMS {
			m["kind_"+kind+"_latency_p95_ms"] = bench.LowerBetter(stats.Summarize(ms).P95, "ms", 1.5, 2000)
		}
	}
	return bench.ScenarioResult{Metrics: m, Notes: notes}
}
