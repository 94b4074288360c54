package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/scene"
)

// The traced run records a span at every seam the engine is built from
// — pipeline.Source, metrics.Sink, metrics.RoundSink,
// pipeline.TenantExecutor — and around each Step call. Everything here
// lives in the benchmark: the program under test is not instrumented
// (that is a later change, ROADMAP item 5), so what a layer costs is
// what can be seen from outside its interface. A layer's self time is
// its span minus the spans it caused.

// Span names.
const (
	spanStep         = "step"
	spanSourceNext   = "source_next"
	spanStoreAppend  = "store_append"
	spanExecSubmit   = "exec_submit"
	spanSinkRecord   = "sink_record"
	spanRoundsRecord = "rounds_record"
)

// span is one timed interval. parent indexes the tracer's span list
// (-1 for a Step span, the root of its frame); times are nanoseconds
// since the tracer was created.
type span struct {
	name       string
	frame      int
	parent     int
	start, end int64
}

// tracer collects the spans of one engine for one pass. An engine runs
// on one goroutine (Sched.Workers = 1), so a tracer needs no lock; the
// open-span stack gives every new span its parent.
type tracer struct {
	id    string // workload/pass, or workload/pass/tenant
	t0    time.Time
	spans []span
	open  []int
	frame int
}

func newTracer(id string, frames int) *tracer {
	return &tracer{id: id, t0: time.Now(), spans: make([]span, 0, frames*5)}
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, frame: t.frame, parent: parent, start: int64(time.Since(t.t0))})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	return idx
}

func (t *tracer) end(idx int) {
	t.spans[idx].end = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// step times one Engine.Step as the root span of the next frame.
func (t *tracer) step(eng *pipeline.Engine) (bool, error) {
	idx := t.begin(spanStep)
	ok, err := eng.Step()
	t.end(idx)
	t.frame++
	return ok, err
}

// selfTimes sums, per span name, duration minus the duration of direct
// children, in nanoseconds.
func (t *tracer) selfTimes(into map[string]int64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		into[s.name] += s.end - s.start - child[i]
	}
}

// spanLine is the JSONL form of a span: id names the frame
// (workload/pass[/tenant]/frame), parent the index of the causing span
// within the same id prefix, -1 for the frame's root.
type spanLine struct {
	ID     string `json:"id"`
	Index  int    `json:"index"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// writeSpans writes the tracers' spans as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, t := range tracers {
		for i, s := range t.spans {
			line := spanLine{
				ID: fmt.Sprintf("%s/%d", t.id, s.frame), Index: i, Name: s.name,
				Start: s.start, End: s.end, Parent: s.parent,
			}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSource wraps a pipeline.Source in a named span.
type tracedSource struct {
	src  pipeline.Source
	t    *tracer
	name string
}

func (s *tracedSource) Cameras() []*scene.Camera { return s.src.Cameras() }

func (s *tracedSource) Next() (*scene.FrameTruth, error) {
	idx := s.t.begin(s.name)
	f, err := s.src.Next()
	s.t.end(idx)
	return f, err
}

// tracedSink wraps a metrics.Sink; Flush is passed through untimed (it
// runs once, at end of stream, outside any frame).
type tracedSink struct {
	sink metrics.Sink
	t    *tracer
}

func (s *tracedSink) RecordFrame(snap metrics.Snapshot) {
	idx := s.t.begin(spanSinkRecord)
	s.sink.RecordFrame(snap)
	s.t.end(idx)
}

func (s *tracedSink) Flush() error { return s.sink.Flush() }

// tracedRounds wraps a metrics.RoundSink.
type tracedRounds struct {
	rounds metrics.RoundSink
	t      *tracer
}

func (s *tracedRounds) RecordRound(r metrics.Round) {
	idx := s.t.begin(spanRoundsRecord)
	s.rounds.RecordRound(r)
	s.t.end(idx)
}

// tracedExec wraps a pipeline.TenantExecutor.
type tracedExec struct {
	exec pipeline.TenantExecutor
	t    *tracer
}

func (e *tracedExec) SubmitFrame(frame int, reqs []pipeline.ExecRequest) ([]pipeline.ExecResult, pipeline.ExecStats, error) {
	idx := e.t.begin(spanExecSubmit)
	res, stats, err := e.exec.SubmitFrame(frame, reqs)
	e.t.end(idx)
	return res, stats, err
}
