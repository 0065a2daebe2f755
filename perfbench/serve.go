package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	euler "repro"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/service/job"
)

// serveSize is the serve-mixed traffic: an open loop at a fixed rate
// against a standalone eulerd, drawing jobs from fixed input pools.
type serveSize struct {
	rate  float64       // jobs per second
	limit time.Duration // latency limit of one job
	conns int           // client connections
	parts int32

	tori    [][2]int64 // generator torus width, height
	rmats   []int64    // generator RMAT requested vertices (degree 5)
	cliques [][2]int64 // generator ring of cliques k, c
	uploads [][2]int64 // uploaded tori, vertex IDs permuted by the seed
	base    [2]int64   // ring of cliques the deltas patch
}

var serveSizes = map[Size]serveSize{
	SizeFull: {
		rate: 10, limit: time.Second, conns: 2, parts: 8,
		tori:    [][2]int64{{120, 120}, {160, 100}, {100, 180}},
		rmats:   []int64{6_000, 7_000, 8_000},
		cliques: [][2]int64{{800, 11}, {215, 21}, {97, 31}},
		uploads: [][2]int64{{300, 300}, {360, 280}},
		base:    [2]int64{256, 13},
	},
	SizeToy: {
		rate: 20, limit: 2 * time.Second, conns: 2, parts: 4,
		tori:    [][2]int64{{20, 20}},
		rmats:   []int64{2_000},
		cliques: [][2]int64{{10, 7}},
		uploads: [][2]int64{{30, 30}},
		base:    [2]int64{16, 7},
	},
}

// mixDeck is the request mix: every block of len(mixDeck) requests holds
// exactly these kinds, in an order shuffled by the seed, so runs differ
// in order and inputs but not in composition.  The shares are chosen so
// that latency_p95_ms falls inside the upload jobs and latency_p50_ms
// inside the generator jobs; README.md gives the reason for each.
var mixDeck = []string{
	"generator", "generator", "generator", "generator", "generator",
	"generator", "generator", "generator", "generator",
	"upload", "upload",
	"repeat", "repeat", "repeat", "repeat", "repeat",
	"delta", "delta", "delta", "delta",
}

// eulerdWorkers is the child server's concurrent job limit.
const eulerdWorkers = 2

// pollEvery is the completion poll period; latency is taken from the
// server's finished timestamp, so the period only delays the fetch.
const pollEvery = 5 * time.Millisecond

// digest summarises a graph's edges by ID in an order-independent way:
// a circuit whose steps carry exactly the graph's edges, once each,
// digests the same.
type digest struct {
	edges  int64
	s1, s2 uint64
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (d *digest) add(id, u, v int64) {
	if u > v {
		u, v = v, u
	}
	h := mix(mix(mix(uint64(id))^uint64(u)) ^ uint64(v))
	d.s1 += h
	d.s2 += mix(h ^ 0x5851f42d4c957f2d)
	d.edges++
}

func graphDigest(g *graph.Graph) digest {
	var d digest
	for i, e := range g.Edges() {
		d.add(int64(i), e.U, e.V)
	}
	return d
}

// request is one scheduled job.
type request struct {
	due   time.Duration // from the start of the run
	kind  string        // generator, upload, repeat or delta
	body  []byte        // JSON spec or EULGRPH1 bytes
	query string        // upload query string
	add   [2]int64      // delta: the edge added twice
	want  digest
}

// pools holds everything a run's requests are drawn from.
type pools struct {
	gens    []poolGraph
	uploads []poolGraph
	base    poolGraph
	floor   *graph.Graph // graph the sequential floor is timed on
}

type poolGraph struct {
	spec map[string]any // generator spec, nil for uploads
	body []byte         // EULGRPH1 bytes for uploads
	n    int64
	want digest
}

func buildPools(sz serveSize, seed int64) pools {
	var p pools
	for _, t := range sz.tori {
		g := euler.NewTorus(t[0], t[1])
		p.gens = append(p.gens, poolGraph{spec: map[string]any{"family": "torus", "width": t[0], "height": t[1]}, n: g.NumVertices(), want: graphDigest(g)})
	}
	for i, v := range sz.rmats {
		gseed := seed*100 + int64(i) + 1
		g, _ := euler.NewEulerianRMAT(v, 5, gseed)
		p.gens = append(p.gens, poolGraph{spec: map[string]any{"family": "rmat", "vertices": v, "degree": 5, "seed": gseed}, n: g.NumVertices(), want: graphDigest(g)})
	}
	for _, c := range sz.cliques {
		g := euler.NewRingOfCliques(c[0], c[1])
		p.gens = append(p.gens, poolGraph{spec: map[string]any{"family": "cliques", "k": c[0], "c": c[1]}, n: g.NumVertices(), want: graphDigest(g)})
	}
	rng := rand.New(rand.NewSource(seed))
	for _, t := range sz.uploads {
		g := euler.NewTorus(t[0], t[1])
		perm := rng.Perm(int(g.NumVertices()))
		body := graph.AppendHeader(nil, uint64(g.NumVertices()), uint64(g.NumEdges()))
		var d digest
		for i, e := range g.Edges() {
			u, v := int64(perm[e.U]), int64(perm[e.V])
			body = binary.AppendUvarint(body, uint64(u))
			body = binary.AppendUvarint(body, uint64(v))
			d.add(int64(i), u, v)
		}
		p.uploads = append(p.uploads, poolGraph{body: body, n: g.NumVertices(), want: d})
		if p.floor == nil {
			p.floor = g
		}
	}
	g := euler.NewRingOfCliques(sz.base[0], sz.base[1])
	p.base = poolGraph{spec: map[string]any{"family": "cliques", "k": sz.base[0], "c": sz.base[1]}, n: g.NumVertices(), want: graphDigest(g)}
	return p
}

// schedule draws the run's requests from the pools: fixed spacing at the
// configured rate, the mix and every choice fixed by the seed.
func schedule(sz serveSize, p pools, seed int64, seconds float64) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	n := int(sz.rate * seconds)
	reqs := make([]request, 0, n)
	interval := time.Duration(float64(time.Second) / sz.rate)
	// Fresh jobs walk the pools in seeded shuffled rounds, so every run
	// sends the same inputs equally often, only in another order.
	genOrder, upOrder := cycler(rng, len(p.gens)), cycler(rng, len(p.uploads))
	fresh := func(due time.Duration, i int, upload bool) request {
		jobSeed := int64(1000 + i) // a distinct seed makes each fresh job a cache miss
		if upload {
			pg := p.uploads[upOrder()]
			q := fmt.Sprintf("parts=%d&seed=%d", sz.parts, jobSeed)
			return request{due: due, kind: "upload", body: pg.body, query: q, want: pg.want}
		}
		pg := p.gens[genOrder()]
		body, _ := json.Marshal(map[string]any{"generator": pg.spec, "parts": sz.parts, "seed": jobSeed})
		return request{due: due, kind: "generator", body: body, want: pg.want}
	}
	deck := append([]string(nil), mixDeck...)
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		if i%len(deck) == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		var req request
		switch deck[i%len(deck)] {
		case "generator":
			req = fresh(due, i, false)
		case "upload":
			req = fresh(due, i, true)
		case "repeat":
			// Repeat an input sent at least a second earlier, so it is
			// usually finished and cached by now.
			var earlier []int
			for j, prev := range reqs {
				if (prev.kind == "generator" || prev.kind == "upload") && prev.due <= due-time.Second {
					earlier = append(earlier, j)
				}
			}
			if len(earlier) == 0 {
				req = fresh(due, i, false)
				break
			}
			j := earlier[rng.Intn(len(earlier))]
			req = reqs[j]
			req.due, req.kind = due, "repeat"
		default:
			u := rng.Int63n(p.base.n)
			v := (u + 1 + rng.Int63n(p.base.n-1)) % p.base.n
			want := p.base.want
			want.add(p.base.want.edges, u, v)
			want.add(p.base.want.edges+1, u, v)
			req = request{due: due, kind: "delta", add: [2]int64{u, v}, want: want}
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// cycler returns a function that yields 0..n-1 in rounds, each round in
// a fresh order drawn from rng.
func cycler(rng *rand.Rand, n int) func() int {
	var round []int
	return func() int {
		if len(round) == 0 {
			round = rng.Perm(n)
		}
		i := round[0]
		round = round[1:]
		return i
	}
}

// jobResult is what the client observed for one request.
type jobResult struct {
	gotConn, submitted time.Time    // POST on the wire .. 202 read
	snap               job.Snapshot // final snapshot
	fetch              time.Duration
	fetchBytes         int64
	rejected           bool
	err                error
}

// server is a child eulerd process.
type server struct {
	cmd  *exec.Cmd
	url  string
	data string
	log  *os.File
	done chan error
}

func startServer(bin, dir string) (*server, error) {
	addr, err := cluster.FreeAddr()
	if err != nil {
		return nil, err
	}
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "eulerd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(eulerdWorkers), "-data", data, "-grace", "5s")
	cmd.Stdout, cmd.Stderr = logf, logf
	// cluster.Spawner cannot set Pdeathsig, which is why this starts the
	// process itself: a benchmark run killed at its time limit must not
	// leave eulerd behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting eulerd: %w", err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, data: data, log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	// load.Client.WaitHealthy probes every 100 ms, a step that would show
	// in setup_s; this loop probes every 2 ms and notices an early exit.
	api := load.NewClient(s.url)
	deadline := time.Now().Add(30 * time.Second)
	for api.Healthz() != nil {
		select {
		case err := <-s.done:
			s.done <- err
			s.stop()
			log, _ := os.ReadFile(logf.Name())
			return nil, fmt.Errorf("eulerd exited during start-up: %v\n%s", err, log)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("eulerd did not become healthy in 30s")
		}
	}
	return s, nil
}

// stop asks eulerd to drain, kills it if it does not exit in time, and
// waits for it.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// client is the load generator's HTTP side, over at most conns
// connections.  load.Client serves the polls and metrics; submit and
// fetch are timed from the moment a request gets its connection.
type client struct {
	*load.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{&load.Client{Base: base, HTTP: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}}
}

func (c *client) close() { c.HTTP.CloseIdleConnections() }

// connTrace returns a context that stores in *at when its request gets a
// connection.
func connTrace(at *time.Time) context.Context {
	return httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { *at = time.Now() },
	})
}

// submit POSTs one job and returns the decoded answer plus the time the
// request got a connection.
func (c *client) submit(req *request, baseFP string) (job.Snapshot, int, time.Time, error) {
	var snap job.Snapshot
	url := c.Base + "/v1/jobs"
	body, ctype := req.body, "application/json"
	switch req.kind {
	case "delta":
		u, v := req.add[0], req.add[1]
		body, _ = json.Marshal(map[string]any{"base": baseFP, "diff": map[string]any{"add": [][2]int64{{u, v}, {u, v}}}})
	case "upload":
		url += "?" + req.query
		ctype = "application/octet-stream"
	case "repeat":
		if req.query != "" {
			url += "?" + req.query
			ctype = "application/octet-stream"
		}
	}
	var gotConn time.Time
	hreq, err := http.NewRequestWithContext(connTrace(&gotConn), http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return snap, 0, gotConn, err
	}
	hreq.Header.Set("Content-Type", ctype)
	resp, err := c.HTTP.Do(hreq)
	if err != nil {
		return snap, 0, gotConn, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return snap, resp.StatusCode, gotConn, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return snap, resp.StatusCode, gotConn, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	err = json.Unmarshal(raw, &snap)
	return snap, resp.StatusCode, gotConn, err
}

// fetch reads a finished job's circuit into buf and returns the time
// from getting a connection to the last byte.  The caller checks the
// circuit after that, so the check is not part of the time.
func (c *client) fetch(id string, buf *bytes.Buffer) (time.Duration, error) {
	var gotConn time.Time
	hreq, err := http.NewRequestWithContext(connTrace(&gotConn), http.MethodGet, c.Base+"/v1/jobs/"+id+"/circuit", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.HTTP.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("circuit: %s", resp.Status)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return time.Since(gotConn), err
}

// checkCircuit checks NDJSON steps {"edge":e,"from":u,"to":v} against
// the input's digest: a closed walk over exactly the input's edges, each
// once, with the endpoints the input gives them.
func checkCircuit(circuit []byte, want digest) error {
	seen := make([]bool, want.edges)
	var got digest
	var first, prevTo int64 = -1, -1
	for len(circuit) > 0 {
		line := circuit
		if i := bytes.IndexByte(circuit, '\n'); i >= 0 {
			line, circuit = circuit[:i], circuit[i+1:]
		} else {
			circuit = nil
		}
		nums, perr := lineInts(line)
		if perr != nil {
			return perr
		}
		e, from, to := nums[0], nums[1], nums[2]
		if e < 0 || e >= want.edges {
			return fmt.Errorf("step %d: edge %d out of range", got.edges, e)
		}
		if seen[e] {
			return fmt.Errorf("step %d: edge %d traversed twice", got.edges, e)
		}
		seen[e] = true
		if prevTo >= 0 && from != prevTo {
			return fmt.Errorf("step %d: walk breaks (%d then %d)", got.edges, prevTo, from)
		}
		if first < 0 {
			first = from
		}
		prevTo = to
		got.add(e, from, to)
	}
	if got.edges != want.edges {
		return fmt.Errorf("circuit has %d steps, input has %d edges", got.edges, want.edges)
	}
	if got.edges > 0 && first != prevTo {
		return fmt.Errorf("walk is not closed: %d .. %d", first, prevTo)
	}
	if got != want {
		return errors.New("circuit edges do not match the input's edges")
	}
	return nil
}

// lineInts parses the three non-negative integers of one circuit line,
// in order, without allocating: the client reads hundreds of MiB of
// circuits per run on the CPUs the server uses.
func lineInts(line []byte) ([3]int64, error) {
	var out [3]int64
	k := 0
	for i := 0; i < len(line) && k < 3; i++ {
		if line[i] < '0' || line[i] > '9' {
			continue
		}
		var v int64
		for ; i < len(line) && line[i] >= '0' && line[i] <= '9'; i++ {
			if v > (1<<62)/10 {
				return out, fmt.Errorf("bad circuit line %q", line)
			}
			v = v*10 + int64(line[i]-'0')
		}
		out[k] = v
		k++
	}
	if k != 3 {
		return out, fmt.Errorf("bad circuit line %q", line)
	}
	return out, nil
}

// jobTimeout bounds how long the client waits for one job to finish.
const jobTimeout = time.Minute

// drive sends reqs open loop, each when it is due, over at most conns
// connections; polls the accepted jobs until they finish; and fetches and
// checks every circuit.  It returns the time the schedule started and
// what the client observed for each request.
func drive(c *client, reqs []request, baseFP string, conns int) (time.Time, []jobResult) {
	results := make([]jobResult, len(reqs))
	// pending and fetches are sized to the number of requests, so no
	// stage ever blocks handing a job to the next.
	pending := make(chan int, len(reqs))
	fetches := make(chan int, len(reqs))
	sends := make(chan int)
	start := time.Now()

	var senders sync.WaitGroup
	for w := 0; w < conns; w++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range sends {
				res := &results[i]
				snap, status, gotConn, err := c.submit(&reqs[i], baseFP)
				res.gotConn, res.submitted = gotConn, time.Now()
				if res.gotConn.IsZero() {
					res.gotConn = res.submitted
				}
				res.snap = snap
				switch {
				case err != nil:
					res.rejected = status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
					res.err = err
				case snap.State == job.StateDone:
					fetches <- i
				default:
					pending <- i
				}
			}
		}()
	}

	polled := make(chan struct{})
	go func() {
		defer close(polled)
		defer close(fetches)
		poll(c, reqs, results, start, pending, fetches)
	}()

	fetched := make(chan struct{})
	go func() {
		defer close(fetched)
		var buf bytes.Buffer
		for i := range fetches {
			res := &results[i]
			if res.snap.Finished == nil {
				res.err = fmt.Errorf("job %s is done without a finished time", res.snap.ID)
				continue
			}
			if res.fetch, res.err = c.fetch(res.snap.ID, &buf); res.err == nil {
				res.fetchBytes = int64(buf.Len())
				res.err = checkCircuit(buf.Bytes(), reqs[i].want)
			}
		}
	}()

	for i := range reqs {
		time.Sleep(time.Until(start.Add(reqs[i].due)))
		sends <- i
	}
	close(sends)
	senders.Wait()
	close(pending)
	<-polled
	<-fetched
	return start, results
}

// poll watches accepted jobs until each is done (handed to fetches),
// failed or timed out; it returns once pending is closed and drained.
func poll(c *client, reqs []request, results []jobResult, start time.Time, pending <-chan int, fetches chan<- int) {
	var watch []int
	open := true
	for open || len(watch) > 0 {
		if len(watch) == 0 {
			i, ok := <-pending
			if !ok {
				return
			}
			watch = append(watch, i)
		}
		for more := true; more && open; {
			select {
			case i, ok := <-pending:
				if !ok {
					open = false
				} else {
					watch = append(watch, i)
				}
			default:
				more = false
			}
		}
		keep := watch[:0]
		for _, i := range watch {
			res := &results[i]
			snap, err := c.Job(res.snap.ID)
			switch {
			case err != nil:
				res.err = err
			case !snap.State.Terminal():
				if time.Since(start.Add(reqs[i].due)) > jobTimeout {
					res.err = fmt.Errorf("job %s still %s after %v", snap.ID, snap.State, jobTimeout)
					continue
				}
				keep = append(keep, i)
			case snap.State != job.StateDone:
				res.err = fmt.Errorf("job %s %s: %s", snap.ID, snap.State, snap.Error)
			default:
				res.snap = snap
				fetches <- i
			}
		}
		watch = keep
		if len(watch) > 0 {
			time.Sleep(pollEvery)
		}
	}
}

// serveSetup starts eulerd and solves the delta base on it.
func serveSetup(cfg runConfig, sz serveSize, p pools, dir string) (*server, string, error) {
	srv, err := startServer(cfg.eulerd, dir)
	if err != nil {
		return nil, "", err
	}
	c := newClient(srv.url, sz.conns)
	defer c.close()
	body, _ := json.Marshal(map[string]any{"generator": p.base.spec, "parts": sz.parts})
	snap, _, _, err := c.submit(&request{kind: "generator", body: body}, "")
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
		snap, err = c.WaitTerminal(ctx, snap.ID, pollEvery)
		cancel()
	}
	if err == nil && snap.State != job.StateDone {
		err = fmt.Errorf("base job %s: %s", snap.State, snap.Error)
	}
	if err == nil {
		var buf bytes.Buffer
		if _, err = c.fetch(snap.ID, &buf); err == nil {
			err = checkCircuit(buf.Bytes(), p.base.want)
		}
	}
	if err == nil && snap.Fingerprint == "" {
		err = errors.New("base job has no fingerprint")
	}
	if err != nil {
		srv.stop()
		return nil, "", fmt.Errorf("base job: %w", err)
	}
	return srv, snap.Fingerprint, nil
}

// counterDelta returns how much the /v1/metrics counter name grew from
// before to after.
func counterDelta(before, after map[string]any, name string) float64 {
	b, _ := before[name].(float64)
	a, _ := after[name].(float64)
	return a - b
}

// runServeMixed drives a child eulerd open loop and checks every circuit.
func runServeMixed(cfg runConfig) (*outcome, error) {
	if cfg.eulerd == "" {
		return nil, errors.New("serve-mixed needs --eulerd")
	}
	sz := serveSizes[cfg.size]
	var (
		p      pools
		srv    *server
		baseFP string
	)
	setup, err := timeSetups(func() error {
		dir, err := os.MkdirTemp(cfg.work, "eulerd-")
		if err != nil {
			return err
		}
		p = buildPools(sz, cfg.seed)
		srv, baseFP, err = serveSetup(cfg, sz, p, dir)
		return err
	}, func() {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		p = pools{}
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	out := &outcome{metrics: newMetrics()}
	out.metrics["setup_s"] = setup
	reqs := schedule(sz, p, cfg.seed, cfg.seconds)
	c := newClient(srv.url, sz.conns)
	defer c.close()

	before, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	dataBefore := dirBytes(srv.data)
	if err := resetPeakRSS(srv.pid()); err != nil {
		return nil, err
	}
	start, results := drive(c, reqs, baseFP, sz.conns)
	out.metrics["peak_rss_mb"], err = peakRSSMiB(srv.pid())
	if err != nil {
		return nil, err
	}
	after, err := c.Metrics()
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		out.tracer = tr
	}
	layers := layerSamples{}
	var lat, exec, queue, submit, egress, lag, unacc []float64
	var rejected int
	var egressBytes int64
	met := 0
	for i, res := range results {
		req := &reqs[i]
		out.attempted++
		if res.rejected {
			rejected++
		}
		if res.err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: serve-mixed job %d (%s): %v\n", i, req.kind, res.err)
			continue
		}
		due := start.Add(req.due)
		fin := *res.snap.Finished
		l := fin.Sub(due) + res.fetch
		lat = append(lat, ms(l))
		if l <= sz.limit {
			met++
		}
		lag = append(lag, ms(res.gotConn.Sub(due)))
		submit = append(submit, ms(res.submitted.Sub(res.gotConn)))
		egress = append(egress, ms(res.fetch))
		egressBytes += res.fetchBytes
		if st := res.snap.Started; st != nil {
			exec = append(exec, ms(fin.Sub(*st)))
			queue = append(queue, ms(st.Sub(res.snap.Created)))
			if res.snap.Report != nil {
				layers.addReport(res.snap.Report)
			}
		}
		if tr == nil {
			continue
		}
		// Spans from the client's clock and the server's timestamps, put
		// together after the run: the traced run sends the same requests
		// as the untraced one and does no extra work while they run.
		job := fmt.Sprintf("%s-%d", req.kind, i)
		root := tr.record("job", job, 0, due, fin)
		tr.record("loadgen.lag", job, root, due, res.gotConn)
		tr.record("httpapi.submit", job, root, res.gotConn, res.submitted)
		if st := res.snap.Started; st != nil {
			tr.record("sched.queue", job, root, res.snap.Created, *st)
			tr.record("euler.exec", job, root, *st, fin)
		}
		fetchAt := res.submitted
		if fin.After(fetchAt) {
			fetchAt = fin
		}
		tr.record("httpapi.egress", job, root, fetchAt, fetchAt.Add(res.fetch))
		rootSpan := tr.get(root)
		uncovered := float64(rootSpan.End-rootSpan.Start-covered(rootSpan, tr.children(root))) / float64(l)
		unacc = append(unacc, uncovered)
	}
	ok := float64(out.attempted-out.failed) / float64(out.attempted)
	out.metrics["ok_frac"] = ok
	out.metrics["slo_met_frac"] = float64(met) / float64(out.attempted)
	out.metrics["latency_p50_ms"] = median(lat)
	out.metrics["latency_p95_ms"] = tailQuantile(lat, 0.95)
	out.metrics["solve_s"] = median(exec) / 1000
	if !cfg.trace {
		return out, nil
	}

	layers.into(out.metrics)
	m := out.metrics
	m["euler.exec_p50_ms"] = median(exec)
	m["euler.exec_p95_ms"] = quantile(exec, 0.95)
	m["sched.queue_wait_p50_ms"] = median(queue)
	m["sched.queue_wait_p95_ms"] = quantile(queue, 0.95)
	hits := counterDelta(before, after, "cache_hits")
	if lookups := hits + counterDelta(before, after, "cache_misses"); lookups > 0 {
		m["sched.cache_hit_frac"] = hits / lookups
	}
	m["sched.delta_reused_parts"] = counterDelta(before, after, "delta_reused_parts")
	m["oocgraph.page_faults"] = counterDelta(before, after, "graph_page_faults")
	m["httpapi.submit_p50_ms"] = median(submit)
	m["httpapi.submit_p95_ms"] = quantile(submit, 0.95)
	m["httpapi.egress_p50_ms"] = median(egress)
	m["httpapi.egress_mb"] = float64(egressBytes) / mib
	m["httpapi.rejected_frac"] = float64(rejected) / float64(out.attempted)
	m["loadgen.lag_p95_ms"] = quantile(lag, 0.95)
	m["spill.written_mb"] = float64(dirBytes(srv.data)-dataBefore) / mib
	m["unaccounted_frac"] = median(unacc)
	m["trace_overhead_frac"] = 0 // spans are assembled after the run
	floor := layerSamples{}
	if err := floor.addHierholzer(tr, p.floor); err != nil {
		return nil, err
	}
	floor.into(m)
	return out, nil
}
