package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobkind"
	"repro/internal/sched"
	"repro/internal/service/job"
)

// fuzzAllocLimit bounds what one submission may allocate while it is
// decoded, validated and (for a delta) resolved against its base.
const fuzzAllocLimit = 64 << 20

// newFuzzServer wires a server with a small upload cap and one small
// retained delta base placed straight into its delta store, so fuzzed
// diffs reach DeltaEntry.Apply without a prior solve.  It returns the
// base's fingerprint.
func newFuzzServer(f *testing.F) (*Server, string) {
	f.Helper()
	cache, err := sched.NewResultCache(filepath.Join(f.TempDir(), "cache.log"), 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { cache.Close() })
	s := New(Config{
		Store:          job.NewStore(8),
		Cache:          cache,
		Deltas:         sched.NewDeltaStore(1 << 20),
		DataDir:        f.TempDir(),
		MaxUploadBytes: 4 << 10,
	})
	g := gen.RingOfCliques(3, 5)
	opts := sched.SolveOptions{Parts: 2, Kind: jobkind.DefaultName}
	fp := sched.FingerprintGraph(g, opts)
	s.deltas.Put(fp, &sched.DeltaEntry{Opts: opts, NumVertices: g.NumVertices(), Edges: sched.EdgePairs(g)})
	return s, fp.String()
}

// submitSeeds are the submissions the other httpapi tests send: JSON
// specs of every kind, a tiny EULGRPH1 upload with its query options,
// and JSON and query-form deltas against the fuzz base.
func submitSeeds(f *testing.F, base string) [][3]string {
	f.Helper()
	var upload bytes.Buffer
	if err := graph.Write(&upload, gen.Torus(4, 3)); err != nil {
		f.Fatal(err)
	}
	const js, bin = "application/json", "application/octet-stream"
	return [][3]string{
		{js, "", `{"generator":{"family":"cliques","k":6,"c":3},"parts":4,"seed":11}`},
		{js, "", `{"generator":{"family":"torus","width":40,"height":25},"parts":8,"mode":"proposed","spill":true}`},
		{js, "", `{"generator":{"family":"rmat","vertices":50000,"degree":4},"parts":8}`},
		{js, "", `{"kind":"postman","generator":{"family":"grid","width":24,"height":16,"closures":0.12,"seed":5},"parts":4,"seed":7}`},
		{js, "", `{"kind":"debruijn","debruijn":{"alphabet":2,"length":12}}`},
		{js, "", `{"kind":"superwalk","superwalk":{"genome_len":2000,"k":15,"seed":1}}`},
		{js, "", `{"generator":{"family":"torus"},"mode":"quantum"}`},
		{"application/json; charset=utf-8", "", `{"generator":{"family":"petersen"}}`},
		{js, "", `{"base":"` + base + `","diff":{"add":[[0,1],[0,1]]}}`},
		{js, "", `{"base":"` + base + `","diff":{"add":[[0,20000]]}}`},
		{js, "", `{"base":"` + base + `","diff":{"remove":[[0,1],[1,2],[2,0]]}}`},
		{bin, "parts=3&seed=7&spill=true", upload.String()},
		{bin, "kind=postman&parts=3", upload.String()},
		{bin, "kind=hamilton", upload.String()},
		{bin, "parts=3", upload.String()[:upload.Len()/2]},
		{"", "base=" + base + "&add=2-3,2-3", ""},
		{"", "base=" + base + "&remove=0-1,1-2,2-0", ""},
		{"", "base=" + base + "&add=1-x", ""},
		{"", "base=deadbeef&add=2-3,2-3", ""},
	}
}

// FuzzSubmit drives hostile (content type, query, body) triples through
// decodeSubmission and, for delta specs, resolveDelta.  Every rejection
// must be a 400, 409, 413 or 429 rendered as a JSON envelope with a
// non-empty code; nothing may panic; and no submission may allocate
// more than fuzzAllocLimit bytes.
func FuzzSubmit(f *testing.F) {
	s, base := newFuzzServer(f)
	for _, seed := range submitSeeds(f, base) {
		f.Add(seed[0], seed[1], []byte(seed[2]))
	}
	f.Fuzz(func(t *testing.T, contentType, rawQuery string, body []byte) {
		r := &http.Request{
			Method: http.MethodPost,
			URL:    &url.URL{Path: "/v1/jobs", RawQuery: rawQuery},
			Header: http.Header{"Content-Type": {contentType}},
			Body:   io.NopCloser(bytes.NewReader(body)),
		}
		dir := t.TempDir()
		rec := httptest.NewRecorder()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spec, status, err := s.decodeSubmission(r, dir)
		if err != nil {
			checkRejectStatus(t, status, err)
			writeSpecError(rec, status, err)
		} else if spec.IsDelta() {
			if _, _, status, err = s.resolveDelta("fuzz", &spec); err != nil {
				checkRejectStatus(t, status, err)
				writeDeltaError(rec, status, err)
			}
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > fuzzAllocLimit {
			t.Fatalf("submission allocated %d bytes (limit %d)", alloc, fuzzAllocLimit)
		}
		if err == nil {
			return
		}
		checkRejectStatus(t, rec.Code, err)
		var env errorBody
		if jerr := json.Unmarshal(rec.Body.Bytes(), &env); jerr != nil || env.Code == "" || env.Error == "" {
			t.Fatalf("rejection %q rendered as %d %q, want a JSON envelope with a code", err, rec.Code, rec.Body.String())
		}
	})
}

// checkRejectStatus fails unless status is one of the client-error
// statuses a submission may be refused with.
func checkRejectStatus(t *testing.T, status int, err error) {
	t.Helper()
	switch status {
	case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
	default:
		t.Fatalf("rejection %q has status %d, want 400, 409, 413 or 429", err, status)
	}
}
