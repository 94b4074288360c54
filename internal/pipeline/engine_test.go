package pipeline

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"mvs/internal/metrics"
	"mvs/internal/scene"
)

// reusingSource serves a trace through one frame it overwrites on every
// Next, observation lists included: the Source contract lets a source
// recycle a frame's storage once Next is called again.
type reusingSource struct {
	trace *scene.Trace
	i     int
	buf   scene.FrameTruth
}

func (s *reusingSource) Cameras() []*scene.Camera { return s.trace.Cameras }

func (s *reusingSource) Next() (*scene.FrameTruth, error) {
	if s.i >= len(s.trace.Frames) {
		return nil, io.EOF
	}
	f := &s.trace.Frames[s.i]
	s.i++
	s.buf.Index = f.Index
	s.buf.Objects = append(s.buf.Objects[:0], f.Objects...)
	if s.buf.PerCamera == nil {
		s.buf.PerCamera = make([][]scene.Observation, len(f.PerCamera))
	}
	for c, obs := range f.PerCamera {
		s.buf.PerCamera[c] = append(s.buf.PerCamera[c][:0], obs...)
	}
	return &s.buf, nil
}

// TestEngineKeepsNoFramePastNext pins the Source contract: the engine
// reads a frame only until its next Next call, so a source that hands
// out one recycled frame buffer models exactly what the trace does.
func TestEngineKeepsNoFramePastNext(t *testing.T) {
	e := getEnv(t)
	for _, mode := range []Mode{Full, Independent, CentralOnly, BALB, StaticPartition} {
		var reports [2]*Report
		for k, src := range []Source{NewTraceSource(e.test), &reusingSource{trace: e.test}} {
			eng, err := NewEngine(src, e.profiles, e.model, NewConfig(mode, 5))
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if err := eng.Run(); err != nil {
				t.Fatalf("%v run: %v", mode, err)
			}
			if reports[k], err = eng.Report(); err != nil {
				t.Fatalf("%v report: %v", mode, err)
			}
		}
		if !reflect.DeepEqual(reports[0].Modeled(), reports[1].Modeled()) {
			t.Fatalf("%v: a recycled frame buffer changed the run:\ntrace:    %+v\nrecycled: %+v",
				mode, reports[0].Modeled(), reports[1].Modeled())
		}
	}
}

// TestEngineMidStreamReport checks Report is callable mid-stream
// without perturbing the run: stepping k frames reports exactly what a
// batch run over the k-frame prefix reports, and the stream then
// continues to the full-trace result.
func TestEngineMidStreamReport(t *testing.T) {
	e := getEnv(t)
	const k = 25 // mid-horizon on purpose: exercises the partial-horizon fold

	eng, err := NewEngine(NewTraceSource(e.test), e.profiles, e.model, NewConfig(BALB, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Report(); err == nil {
		t.Fatal("Report before any frame must error")
	}
	for i := 0; i < k; i++ {
		ok, err := eng.Step()
		if err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	mid, err := eng.Report()
	if err != nil {
		t.Fatal(err)
	}

	prefix := &scene.Trace{FPS: e.test.FPS, Cameras: e.test.Cameras, Frames: e.test.Frames[:k]}
	want, err := Run(prefix, e.profiles, e.model, NewConfig(BALB, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Modeled(), mid.Modeled()) {
		t.Fatalf("mid-stream report diverged from %d-frame batch run:\nbatch: %+v\nmid:   %+v",
			k, want.Modeled(), mid.Modeled())
	}

	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Frames() != len(e.test.Frames) {
		t.Fatalf("engine processed %d frames, want %d", eng.Frames(), len(e.test.Frames))
	}
	full, err := Run(e.test, e.profiles, e.model, NewConfig(BALB, 5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Modeled(), got.Modeled()) {
		t.Fatal("post-drain report diverged from batch run after a mid-stream Report call")
	}
}

// flushFailSink records nothing and fails its Flush: the sink-error
// propagation fixture.
type flushFailSink struct{ err error }

func (s *flushFailSink) RecordFrame(metrics.Snapshot) {}
func (s *flushFailSink) Flush() error                 { return s.err }

// TestEngineSinkErrorPropagates pins the satellite fix: a failing sink
// flush surfaces through Engine.Err/Run and through the batch Run
// wrapper — it is no longer silently dropped.
func TestEngineSinkErrorPropagates(t *testing.T) {
	e := getEnv(t)
	sinkErr := errors.New("disk full")
	cfg := NewConfig(BALB, 5)
	cfg.Obs.Sink = &flushFailSink{err: sinkErr}

	eng, err := NewEngine(NewTraceSource(e.test), e.profiles, e.model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); !errors.Is(err, sinkErr) {
		t.Fatalf("engine Run returned %v, want wrapped %v", err, sinkErr)
	}
	if err := eng.Err(); !errors.Is(err, sinkErr) {
		t.Fatalf("Err() = %v, want wrapped %v", err, sinkErr)
	}
	// The stream still completed: the report over the processed frames
	// stays available even though the flush failed.
	if eng.Frames() != len(e.test.Frames) {
		t.Fatalf("engine processed %d frames, want %d", eng.Frames(), len(e.test.Frames))
	}

	if _, err := Run(e.test, e.profiles, e.model, cfg); !errors.Is(err, sinkErr) {
		t.Fatalf("batch Run returned %v, want wrapped %v", err, sinkErr)
	}
}

// failSource errors after a few frames.
type failSource struct {
	cams []*scene.Camera
	n    int
}

func (s *failSource) Cameras() []*scene.Camera { return s.cams }
func (s *failSource) Next() (*scene.FrameTruth, error) {
	if s.n <= 0 {
		return nil, fmt.Errorf("camera link dropped")
	}
	s.n--
	return &scene.FrameTruth{PerCamera: make([][]scene.Observation, len(s.cams))}, nil
}

// TestEngineSourceValidation covers the streaming-only error paths: a
// failing source, a frame with the wrong camera count, and Step after
// the stream ended.
func TestEngineSourceValidation(t *testing.T) {
	e := getEnv(t)

	eng, err := NewEngine(&failSource{cams: e.test.Cameras, n: 3}, e.profiles, e.model, NewConfig(BALB, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err == nil {
		t.Fatal("engine over a failing source must error")
	}
	if eng.Frames() != 3 {
		t.Fatalf("engine processed %d frames before the source failed, want 3", eng.Frames())
	}
	if ok, err := eng.Step(); ok || err == nil {
		t.Fatal("Step after a terminal error must keep returning (false, err)")
	}

	src := NewChannelSource(e.test.Cameras, 1)
	go func() {
		src.Push(&scene.FrameTruth{PerCamera: make([][]scene.Observation, 1)}) // wrong width
		src.Close()
	}()
	eng2, err := NewEngine(src, e.profiles, e.model, NewConfig(BALB, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(); err == nil {
		t.Fatal("frame with wrong per-camera width must error")
	}

	if _, err := NewEngine(NewChannelSource(nil, 1), nil, nil, NewConfig(Full, 0)); err == nil {
		t.Fatal("source with no cameras must be rejected")
	}
}
