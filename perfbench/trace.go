package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one traced call into the program: a public entry point the
// benchmark invoked, timed in process CPU and wall clock. N is the
// number of calls the span covers (batched layer probes time many tiny
// calls under one span).
type span struct {
	Name     string `json:"name"`
	Op       int64  `json:"op"`
	Parent   int    `json:"parent"` // index of the enclosing span, -1 at top level
	CPUStart int64  `json:"cpu_start_ns"`
	CPUEnd   int64  `json:"cpu_end_ns"`
	Start    int64  `json:"start_ns"` // wall, relative to the tracer's epoch
	End      int64  `json:"end_ns"`
	N        int    `json:"n"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indexes
	op    int64 // current operation id
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// setOp tags the spans that follow with an operation id.
func (t *tracer) setOp(op int64) {
	if t != nil {
		t.op = op
	}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Op: t.op, Parent: parent,
		Start: int64(time.Since(t.epoch)), CPUStart: int64(processCPU()),
	})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the span opened by begin, covering n calls.
func (t *tracer) end(i, n int) {
	if t == nil || i < 0 {
		return
	}
	s := &t.spans[i]
	s.CPUEnd = int64(processCPU())
	s.End = int64(time.Since(t.epoch))
	s.N = n
	t.open = t.open[:len(t.open)-1]
}

// addSpan records a top-level span the caller timed itself; its wall
// Start and End are Unix nanoseconds.
func (t *tracer) addSpan(s span) {
	if t == nil {
		return
	}
	e := t.epoch.UnixNano()
	s.Start -= e
	s.End -= e
	s.Parent = -1
	t.spans = append(t.spans, s)
}

// layerStat aggregates every span of one name.
type layerStat struct {
	Calls   int
	SelfCPU time.Duration // span CPU minus the CPU its child spans cover
	Wall    time.Duration
}

// PerCall returns the self CPU per covered call, in nanoseconds.
func (l layerStat) PerCall() float64 {
	return float64(l.SelfCPU) / float64(l.Calls)
}

// WallPerCall returns the wall time per covered call, in nanoseconds.
func (l layerStat) WallPerCall() float64 {
	return float64(l.Wall) / float64(l.Calls)
}

// layers folds the spans into per-name statistics.
func (t *tracer) layers() map[string]layerStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.CPUEnd - s.CPUStart
		}
	}
	out := make(map[string]layerStat)
	for i, s := range t.spans {
		l := out[s.Name]
		l.Calls += s.N
		l.SelfCPU += time.Duration(s.CPUEnd - s.CPUStart - child[i])
		l.Wall += time.Duration(s.End - s.Start)
		out[s.Name] = l
	}
	return out
}

// write dumps the spans as JSON lines, in start order.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
