package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code: its name, interval, the span that caused it, and the solve or job
// it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = root
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.  Only traced runs
// create one; untraced runs call the layers directly.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record adds a finished span over [start, end] and returns its ID.
func (t *tracer) record(name, job string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Job: job,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// begin opens a span now; end closes it.  Children recorded in between
// name the returned ID as their parent.
func (t *tracer) begin(name, job string, parent int) int {
	now := time.Now()
	return t.record(name, job, parent, now, now)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = int64(now.Sub(t.epoch))
	return s.dur()
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name, job string, parent int, fn func()) time.Duration {
	id := t.begin(name, job, parent)
	fn()
	return t.end(id)
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// get returns the span with the given ID.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// uncoveredFrac is the share of span id's interval that none of its
// children covers: the part of a solve no layer span accounts for.
func (t *tracer) uncoveredFrac(id int) float64 {
	root := t.get(id)
	total := root.End - root.Start
	if total <= 0 {
		return 0
	}
	return float64(total-covered(root, t.children(id))) / float64(total)
}

// covered returns how much of root's interval the union of kids spans.
func covered(root span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, root.Start), min(k.End, root.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return sum + curHi - curLo
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := make(map[string]float64)
	for _, s := range spans {
		self[s.Name] += ms(time.Duration(s.End - s.Start - covered(s, kids[s.ID])))
	}
	return self
}

// writeFile dumps every span plus the per-name self times as JSON.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Epoch  time.Time          `json:"epoch"`
		SelfMS map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{t.epoch, self, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
