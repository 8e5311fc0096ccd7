package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent is the span of the layer above (0 for the
// outermost call).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the tracer's memory; later spans are dropped.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends.
type tracer struct {
	clk   clock
	mu    sync.Mutex
	spans []span
}

func newTracer(clk clock) *tracer { return &tracer{clk: clk} }

// add records a span and returns its id (0 once the tracer is full).
func (t *tracer) add(req int64, parent int, name string, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// call records a client call of an open- or closed-loop phase as the
// outermost span of its request.
func (t *tracer) call(stream uint64, i int, name string, start, end int64) {
	t.add(int64(stream)<<32|int64(i), 0, name, start, end)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations in microseconds of the spans whose
// name has the given prefix.
func (t *tracer) durations(prefix string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, for each span named parent, its duration minus the
// durations of its children named child, in microseconds: the layer's
// own cost by subtraction.
func (t *tracer) selfTimes(parent, child string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int]int64)
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, child) && s.Parent != 0 {
			kids[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, parent) {
			if k, ok := kids[s.ID]; ok {
				out = append(out, float64(s.End-s.Start-k)/1e3)
			}
		}
	}
	return out
}

// write stores the spans as JSON under dir and returns the file path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(struct {
		Clock string `json:"clock"`
		Spans []span `json:"spans"`
	}{"nanoseconds since the run began", t.spans})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
