package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from the
// benchmark's own files, around its calls into each layer; nothing inside the
// simulator is instrumented.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Unit   int    `json:"unit"`   // shared by all spans of one simulator run
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is the
// "tracing off" state: begin and end are no-ops, so the same pipeline code
// serves the untraced warm-up and the traced pass. Single-goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	unit  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextUnit starts a new simulator run: spans begun from here on share its id.
func (t *tracer) nextUnit() {
	if t != nil {
		t.unit++
	}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Unit: t.unit, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned. Spans close innermost-first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic("bench: spans must close innermost-first")
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover, over the spans recorded from index `from` on.
func (t *tracer) selfTimes(from int) map[string]int64 {
	self := make(map[string]int64)
	child := make([]int64, len(t.spans))
	for i := from; i < len(t.spans); i++ {
		s := &t.spans[i]
		if s.Parent >= from {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i := from; i < len(t.spans); i++ {
		s := &t.spans[i]
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// write stores every span, and the simulated cycles of every unit, as one
// JSON document.
func (t *tracer) write(dir, workload string, unitCycles map[string]int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload   string           `json:"workload"`
		UnitCycles map[string]int64 `json:"unit_sim_cycles"`
		Spans      []span           `json:"spans"`
	}{workload, unitCycles, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
