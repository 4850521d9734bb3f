package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval: a call the benchmark made into a module's
// public function, or a benchmark step that groups such calls. Parent 0
// marks a root; spans of one request share Req.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call. Safe for concurrent use
// by the client and gossip goroutines.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now()}
}

// begin opens a span and returns its id (0 when tracing is off or t is
// nil).
func (t *tracer) begin(name string, parent, req uint64) uint64 {
	if t == nil || !t.on {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the durations of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceDoc is the trace file's shape.
type traceDoc struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// write stores the spans as JSON at path.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	err = json.NewEncoder(w).Encode(traceDoc{Workload: workload, Seed: seed, Spans: t.spans})
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// checkTraceFile parses a trace file and checks that every span is closed
// and every non-root span's parent is present.
func checkTraceFile(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc traceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, fmt.Errorf("trace %s: %w", path, err)
	}
	ids := make(map[uint64]bool, len(doc.Spans))
	for _, s := range doc.Spans {
		ids[s.ID] = true
	}
	for _, s := range doc.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			return 0, fmt.Errorf("trace %s: span %d (%s) has missing parent %d", path, s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			return 0, fmt.Errorf("trace %s: span %d (%s) never closed", path, s.ID, s.Name)
		}
	}
	return len(doc.Spans), nil
}
