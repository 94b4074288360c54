package pipeline

import (
	"context"
	"io"
	"sync"

	"mvs/internal/scene"
)

// Source yields the timestamped frame observations an Engine consumes:
// a fixed camera roster plus an ordered stream of ground-truth frames
// (each carrying the per-camera observations the detectors will see).
// The simulator (TraceSource), a recorded run (the store's Replay),
// live ingest (IngestSource) and tests (ChannelSource) all speak this
// interface.
//
// Contract: Cameras is constant for the life of the source and every
// frame's PerCamera has exactly one list per camera; Next returns
// frames in stream order and io.EOF — and only io.EOF — once the
// stream is exhausted. The engine never mutates returned frames and
// reads a frame only until its next call to Next, so a source may
// recycle a frame's storage from then on.
type Source interface {
	// Cameras is the fixed camera roster of the stream.
	Cameras() []*scene.Camera
	// Next returns the next frame, or io.EOF at end of stream. Next may
	// block until a frame is available.
	Next() (*scene.FrameTruth, error)
}

// TraceSource adapts a pre-generated scene.Trace to the Source
// interface: the batch path. Not safe for concurrent Next calls.
type TraceSource struct {
	trace *scene.Trace
	i     int
}

// NewTraceSource wraps a trace; the trace is only read.
func NewTraceSource(t *scene.Trace) *TraceSource {
	return &TraceSource{trace: t}
}

// Cameras returns the trace's camera roster.
func (s *TraceSource) Cameras() []*scene.Camera { return s.trace.Cameras }

// Next returns the next trace frame, io.EOF past the end.
func (s *TraceSource) Next() (*scene.FrameTruth, error) {
	if s.i >= len(s.trace.Frames) {
		return nil, io.EOF
	}
	f := &s.trace.Frames[s.i]
	s.i++
	return f, nil
}

// ChannelSource is a push-driven Source for tests and in-process
// producers: frames Pushed on one goroutine are consumed by the
// engine's Next on another. Close ends the stream; Next drains the
// buffer first, then reports io.EOF.
type ChannelSource struct {
	cams []*scene.Camera
	ch   chan *scene.FrameTruth
	once sync.Once
}

// NewChannelSource builds a source for a fixed camera roster with the
// given frame buffer (buffer <= 0 defaults to 1).
func NewChannelSource(cams []*scene.Camera, buffer int) *ChannelSource {
	if buffer <= 0 {
		buffer = 1
	}
	return &ChannelSource{cams: cams, ch: make(chan *scene.FrameTruth, buffer)}
}

// Cameras returns the roster given at construction.
func (s *ChannelSource) Cameras() []*scene.Camera { return s.cams }

// Push appends one frame to the stream, blocking while the buffer is
// full. A producer that must survive a consumer that has stopped
// draining (an engine that hit an error, or was never started) should
// use TryPush or PushCtx instead — Push blocks forever in that case.
// Push must not be called after Close.
func (s *ChannelSource) Push(f *scene.FrameTruth) { s.ch <- f }

// TryPush appends one frame if the buffer has room and reports whether
// it did. It never blocks, so a producer can shed instead of stalling
// when the engine has stopped consuming. TryPush must not be called
// after Close.
func (s *ChannelSource) TryPush(f *scene.FrameTruth) bool {
	select {
	case s.ch <- f:
		return true
	default:
		return false
	}
}

// PushCtx appends one frame, blocking while the buffer is full until
// ctx is done; it returns ctx.Err() when the wait was abandoned and nil
// when the frame was accepted. PushCtx must not be called after Close.
func (s *ChannelSource) PushCtx(ctx context.Context, f *scene.FrameTruth) error {
	select {
	case s.ch <- f:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close ends the stream: after the buffer drains, Next reports io.EOF.
// Close is idempotent.
func (s *ChannelSource) Close() { s.once.Do(func() { close(s.ch) }) }

// Next blocks for the next pushed frame, io.EOF once closed and
// drained.
func (s *ChannelSource) Next() (*scene.FrameTruth, error) {
	f, ok := <-s.ch
	if !ok {
		return nil, io.EOF
	}
	return f, nil
}
