package pipeline

import (
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mvs/internal/faults"
	"mvs/internal/scene"
)

// offerFrame pushes one trace frame's parts (truth objects on camera 0,
// as over the wire).
func offerFrame(t *testing.T, src *IngestSource, fi int, f *scene.FrameTruth) {
	t.Helper()
	for _, p := range AppendFrameParts(nil, fi, f) {
		if err := src.Offer(p); err != nil {
			t.Fatalf("offer frame %d cam %d: %v", fi, p.Cam, err)
		}
	}
}

// TestIngestMatchesTraceSource checks the no-overload baseline: parts
// offered in lockstep with the engine (one frame per step) produce the
// identical modeled report a TraceSource run does — live ingest is a
// packaging change, not an algorithm change.
func TestIngestMatchesTraceSource(t *testing.T) {
	e := getEnv(t)
	batch, err := Run(e.test, e.profiles, e.model, NewConfig(BALB, 5))
	if err != nil {
		t.Fatal(err)
	}

	src, err := NewIngestSource(e.test.Cameras, IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	eng, err := NewEngine(src, e.profiles, e.model, NewConfig(BALB, 5))
	if err != nil {
		t.Fatal(err)
	}
	fi, eos := 0, false
	for {
		if fi < len(e.test.Frames) {
			offerFrame(t, src, fi, &e.test.Frames[fi])
			fi++
		} else if !eos {
			eos = true
			for cam := range e.test.Cameras {
				if err := src.Offer(FramePart{Cam: cam, EOS: true}); err != nil {
					t.Fatal(err)
				}
			}
		}
		more, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	live, err := eng.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch.Modeled(), live.Modeled()) {
		t.Fatalf("paced live ingest diverged from batch:\nbatch: %+v\nlive:  %+v",
			batch.Modeled(), live.Modeled())
	}
	c := src.Counters()
	if c.Shed != 0 || c.Ingested != len(e.test.Frames)*len(e.test.Cameras) {
		t.Fatalf("paced run counters: %+v (want 0 shed, all parts ingested)", c)
	}
}

// TestIngestShedDeterminism is the overload acceptance criterion: the
// same over-offered part sequence sheds the same set at every engine
// worker count, and repeats bit-identically. Load 3x with queue 4
// forces constant shedding.
func TestIngestShedDeterminism(t *testing.T) {
	e := getEnv(t)
	type result struct {
		counters IngestCounters
		modeled  interface{}
	}
	runOnce := func(workers int, policy ShedPolicy) result {
		src, err := NewIngestSource(e.test.Cameras, IngestConfig{Queue: 4, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		cfg := NewConfig(BALB, 5)
		cfg.Sched.Workers = workers
		eng, err := NewEngine(src, e.profiles, e.model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fi, eos := 0, false
		for {
			for b := 0; b < 3 && fi < len(e.test.Frames); b++ {
				offerFrame(t, src, fi, &e.test.Frames[fi])
				fi++
			}
			if fi >= len(e.test.Frames) && !eos {
				eos = true
				for cam := range e.test.Cameras {
					if err := src.Offer(FramePart{Cam: cam, EOS: true}); err != nil {
						t.Fatal(err)
					}
				}
			}
			more, err := eng.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
		}
		rep, err := eng.Report()
		if err != nil {
			t.Fatal(err)
		}
		return result{counters: src.Counters(), modeled: rep.Modeled()}
	}
	for _, policy := range []ShedPolicy{ShedDropOldest, ShedFreshest, ShedStale} {
		base := runOnce(1, policy)
		if base.counters.Shed == 0 {
			t.Fatalf("%v: 3x load shed nothing — overload not reached", policy)
		}
		for _, workers := range []int{1, 4, 0} {
			got := runOnce(workers, policy)
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("%v: workers=%d diverged from workers=1:\nbase: %+v\ngot:  %+v",
					policy, workers, base, got)
			}
		}
	}
}

// TestIngestShedPolicies pins each policy's admission decisions on a
// hand-checkable single-camera sequence.
func TestIngestShedPolicies(t *testing.T) {
	cams := getEnv(t).test.Cameras[:1]
	offer := func(src *IngestSource, frames ...int) {
		for _, fi := range frames {
			if err := src.Offer(FramePart{Cam: 0, Frame: fi}); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain := func(src *IngestSource) []int {
		if err := src.Offer(FramePart{Cam: 0, EOS: true}); err != nil {
			t.Fatal(err)
		}
		var got []int
		for {
			f, err := src.Next()
			if err == io.EOF {
				return got
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, f.Index)
		}
	}
	cases := []struct {
		name     string
		cfg      IngestConfig
		frames   []int
		want     []int
		wantShed int
	}{
		// Queue 4, frames 0..5: head drops twice.
		{"drop-oldest", IngestConfig{Queue: 4}, []int{0, 1, 2, 3, 4, 5}, []int{2, 3, 4, 5}, 2},
		// Queue 4: frame 4 finds the queue full and clears it, 5 joins.
		{"freshest", IngestConfig{Queue: 4, Policy: ShedFreshest}, []int{0, 1, 2, 3, 4, 5}, []int{4, 5}, 4},
		// Queue 4, so the cutoff is 8 frames: offering 10 prunes queued
		// frames < 2 (0 and 1) and keeps 2.
		{"stale", IngestConfig{Queue: 4, Policy: ShedStale}, []int{0, 1, 2, 10}, []int{2, 10}, 2},
		// Duplicates and reordered stragglers shed at admission.
		{"monotonic", IngestConfig{Queue: 8}, []int{0, 2, 2, 1, 3}, []int{0, 2, 3}, 2},
	}
	for _, tc := range cases {
		src, err := NewIngestSource(cams, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		offer(src, tc.frames...)
		got := drain(src)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: emitted %v, want %v", tc.name, got, tc.want)
		}
		if c := src.Counters(); c.Shed != tc.wantShed {
			t.Errorf("%s: shed %d, want %d", tc.name, c.Shed, tc.wantShed)
		}
		src.Close()
	}
}

// TestIngestResendAfterDrain is the regression test of a re-sent part
// re-emitting its frame: once a camera's queue had drained, the
// ascending check saw nothing to compare with, so a producer's retry of
// an emitted frame was admitted and assembled again, and the stream went
// backwards. A part at or below its camera's last admitted frame is shed,
// queue empty or not.
func TestIngestResendAfterDrain(t *testing.T) {
	cams := getEnv(t).test.Cameras[:2]
	src, err := NewIngestSource(cams, IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	offer := func(cam, fi int) {
		if err := src.Offer(FramePart{Cam: cam, Frame: fi, Obs: []scene.Observation{{ObjectID: 10*fi + cam}}}); err != nil {
			t.Fatal(err)
		}
	}
	next := func() int {
		f, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		return f.Index
	}
	offer(0, 0)
	offer(1, 0)
	offer(0, 1)
	offer(1, 1)
	if a, b := next(), next(); a != 0 || b != 1 {
		t.Fatalf("emitted %d, %d, want 0, 1", a, b)
	}
	offer(1, 1) // a producer retry of an emitted frame
	offer(0, 2)
	offer(1, 2)
	if got := next(); got != 2 {
		t.Fatalf("after a re-send of frame 1, emitted frame %d, want 2", got)
	}
	if c := src.Counters(); c.Shed != 1 || c.Ingested != 6 || c.QueueDepth != 0 {
		t.Fatalf("counters %+v, want the re-send shed and six parts ingested", c)
	}
}

// TestIngestSpareObjectListsBounded: ground-truth objects outlive a shed
// part, so a camera that lags leaves one object list per frame camera 0
// delivered. When it catches up and assembly passes those frames, the
// source keeps at most Queue+1 of their lists for reuse and leaves the
// rest to the collector, and every emitted frame still carries its own
// objects.
func TestIngestSpareObjectListsBounded(t *testing.T) {
	const queue, lag = 4, 100
	cams := getEnv(t).test.Cameras[:2]
	src, err := NewIngestSource(cams, IngestConfig{Queue: queue})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	objs := func(fi int) []scene.ObjectState { return []scene.ObjectState{{ID: fi}, {ID: -fi}} }
	offer := func(p FramePart) {
		if err := src.Offer(p); err != nil {
			t.Fatal(err)
		}
	}
	for fi := 0; fi < lag; fi++ { // camera 1 is silent
		offer(FramePart{Cam: 0, Frame: fi, Objects: objs(fi)})
	}
	if n := len(src.m.objects.pending); n != lag {
		t.Fatalf("%d frames' objects pending while camera 1 lags, want %d", n, lag)
	}
	offer(FramePart{Cam: 1, Frame: lag - 1}) // the catch-up
	offer(FramePart{Cam: 0, EOS: true})
	offer(FramePart{Cam: 1, EOS: true})
	for want := lag - queue; ; want++ {
		f, err := src.Next()
		if err == io.EOF {
			if want != lag {
				t.Fatalf("stream ended before frame %d", want)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Index != want || !reflect.DeepEqual(f.Objects, objs(want)) {
			t.Fatalf("frame %d with objects %v, want frame %d with %v", f.Index, f.Objects, want, objs(want))
		}
		if n := len(src.m.objects.spare); n > queue+1 {
			t.Fatalf("after frame %d the source keeps %d spare object lists, want at most %d", f.Index, n, queue+1)
		}
	}
}

// TestIngestNegativeFrameIndices: the wire carries any int as a frame
// index, and assembly takes the lowest queued one however negative. It
// used to start from -1 as "none yet", so with negative heads it took the
// last camera's and the stream went backwards.
func TestIngestNegativeFrameIndices(t *testing.T) {
	cams := getEnv(t).test.Cameras[:2]
	src, err := NewIngestSource(cams, IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, p := range []FramePart{{Cam: 0, Frame: -5}, {Cam: 1, Frame: -3}, {Cam: 0, EOS: true}, {Cam: 1, EOS: true}} {
		if err := src.Offer(p); err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	for {
		f, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f.Index)
	}
	if !reflect.DeepEqual(got, []int{-5, -3}) {
		t.Fatalf("emitted %v, want [-5 -3]", got)
	}
}

// TestIngestOfferNeverBlocks pins the producer-side guarantee: a
// producer can offer far past the queue bound with no consumer at all,
// synchronously, and the bounded queue sheds the overflow.
func TestIngestOfferNeverBlocks(t *testing.T) {
	cams := getEnv(t).test.Cameras[:1]
	src, err := NewIngestSource(cams, IngestConfig{Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for fi := 0; fi < 1000; fi++ {
		if err := src.Offer(FramePart{Cam: 0, Frame: fi}); err != nil {
			t.Fatal(err)
		}
	}
	c := src.Counters()
	if c.QueueDepth != 2 || c.Shed != 998 || c.Ingested != 1000 {
		t.Fatalf("counters after 1000 unconsumed offers: %+v", c)
	}
}

// TestIngestWatchdogStall holds the stall deadline to virtual time on
// the machine: while a camera is silent, next waits until exactly Stall
// after the start, then fails with a *StallError that it keeps
// returning; an assembly moves the deadline, and a frame that is ready
// is handed over however late it is asked for.
func TestIngestWatchdogStall(t *testing.T) {
	const stall = time.Minute
	start := time.Unix(1_700_000_000, 0)
	offer := func(m *ingestMachine, p FramePart) {
		t.Helper()
		if _, err := m.offer(p); err != nil {
			t.Fatal(err)
		}
	}
	waits := func(m *ingestMachine, now, deadline time.Time) {
		t.Helper()
		if f, wakeAt, err := m.next(now); f != nil || err != nil || !wakeAt.Equal(deadline) {
			t.Fatalf("next at %v: %v, wake at %v, %v; want a wait until %v", now.Sub(start), f, wakeAt.Sub(start), err, deadline.Sub(start))
		}
	}

	// One camera offers; the other stays silent.
	m := newIngestMachine(2, IngestConfig{Stall: stall}, start)
	offer(&m, FramePart{Cam: 0, Frame: 0})
	waits(&m, start, start.Add(stall))
	waits(&m, start.Add(stall-time.Nanosecond), start.Add(stall))
	_, _, err := m.next(start.Add(stall))
	var stalled *StallError
	if !errors.As(err, &stalled) || stalled.Idle != stall {
		t.Fatalf("next at the deadline returned %v, want *StallError{Idle: %v}", err, stall)
	}
	// The degraded state is sticky, even once a frame is assemblable.
	offer(&m, FramePart{Cam: 1, Frame: 0})
	if _, _, again := m.next(start.Add(2 * stall)); again != err {
		t.Fatalf("next after the stall returned %v, want the sticky %v", again, err)
	}

	m = newIngestMachine(2, IngestConfig{Stall: stall}, start)
	offer(&m, FramePart{Cam: 0, Frame: 0})
	offer(&m, FramePart{Cam: 1, Frame: 0})
	at := start.Add(5 * stall)
	if f, _, err := m.next(at); err != nil || f == nil || f.Index != 0 {
		t.Fatalf("a ready frame asked for past the deadline: %v, %v", f, err)
	}
	offer(&m, FramePart{Cam: 0, Frame: 1})
	waits(&m, at.Add(stall-time.Nanosecond), at.Add(stall))

	// Without a Stall, a silent camera makes next wait with no deadline.
	m = newIngestMachine(2, IngestConfig{}, start)
	offer(&m, FramePart{Cam: 0, Frame: 0})
	waits(&m, start.Add(1000*stall), time.Time{})
}

// TestIngestStallTimer checks the shell's wiring of the deadline: a Next
// with a silent camera is woken by the timer and fails typed, and
// through the engine errors.As still finds the *StallError.
func TestIngestStallTimer(t *testing.T) {
	const stall = 20 * time.Millisecond
	e := getEnv(t)
	src, err := NewIngestSource(e.test.Cameras, IngestConfig{Stall: stall})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.Offer(FramePart{Cam: 0, Frame: 0}); err != nil {
		t.Fatal(err)
	}
	_, err = src.Next()
	var stalled *StallError
	if !errors.As(err, &stalled) || stalled.Idle < stall {
		t.Fatalf("Next returned %v, want a *StallError after at least %v", err, stall)
	}

	src2, err := NewIngestSource(e.test.Cameras, IngestConfig{Stall: stall})
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	eng, err := NewEngine(src2, e.profiles, e.model, NewConfig(BALB, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); !errors.As(err, &stalled) {
		t.Fatalf("Engine.Run returned %v, want a wrapped *StallError", err)
	}
}

// TestIngestCloseLeavesNoGoroutine: a source with a stall deadline starts
// no goroutine of its own, so closing it leaves none behind. (A goroutine
// of an earlier test ending between the two readings is retried.)
func TestIngestCloseLeavesNoGoroutine(t *testing.T) {
	cams := getEnv(t).test.Cameras
	var before, after int
	for range 3 {
		before = runtime.NumGoroutine()
		src, err := NewIngestSource(cams, IngestConfig{Stall: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		src.Close()
		if after = runtime.NumGoroutine(); after == before {
			return
		}
	}
	t.Fatalf("%d goroutines after a source was built and closed, %d before", after, before)
}

// TestIngestTCPRoundTrip pushes frame parts through the real wire
// protocol and checks the assembled stream matches the trace, truth
// objects included.
func TestIngestTCPRoundTrip(t *testing.T) {
	e := getEnv(t)
	const n = 8
	src, err := NewIngestSource(e.test.Cameras, IngestConfig{Queue: n + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	src.Serve(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var parts []FramePart
	for fi := 0; fi < n; fi++ {
		parts = AppendFrameParts(parts, fi, &e.test.Frames[fi])
	}
	for _, p := range AppendEOSParts(parts, len(e.test.Cameras)) {
		if err := EncodeFramePart(conn, p); err != nil {
			t.Fatal(err)
		}
	}

	for fi := 0; fi < n; fi++ {
		got, err := src.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", fi, err)
		}
		want := &e.test.Frames[fi]
		if got.Index != fi {
			t.Fatalf("frame %d assembled with index %d", fi, got.Index)
		}
		if !reflect.DeepEqual(got.PerCamera, want.PerCamera) {
			t.Fatalf("frame %d observations diverged over the wire", fi)
		}
		if !reflect.DeepEqual(got.Objects, want.Objects) {
			t.Fatalf("frame %d truth objects diverged over the wire", fi)
		}
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("after EOS: %v, want io.EOF", err)
	}
}

// TestIngestChaosListener serves ingest through the fault injector's
// listener: connections die mid-stream, the producer redials and
// resumes (parts in flight are lost — an outage-shaped gap, not an
// error), and the source keeps assembling a strictly ascending frame
// stream without ever blocking the producer or wedging Next.
func TestIngestChaosListener(t *testing.T) {
	e := getEnv(t)
	const n = 40
	src, err := NewIngestSource(e.test.Cameras, IngestConfig{Queue: n + 8})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// reset kills server-side reads (the only operation an ingest server
	// performs); at 8% per read most connections die within a few frames.
	spec, err := faults.ParseSpec("seed=7,reset=0.08")
	if err != nil {
		t.Fatal(err)
	}
	src.Serve(faults.New(spec).Listener(ln))

	// One connection per 4-frame batch: a reset loses that batch's tail
	// (at-most-once delivery — the producer cannot know what the server
	// read before the kill), the next batch redials fresh.
	const batch = 4
	dials := 0
	for start := 0; start < n; start += batch {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		dials++
	push:
		for fi := start; fi < start+batch && fi < n; fi++ {
			f := &e.test.Frames[fi]
			for cam, obs := range f.PerCamera {
				if err := EncodeFramePart(conn, FramePart{Cam: cam, Frame: fi, Obs: obs}); err != nil {
					break push // connection killed; the batch tail is lost
				}
			}
		}
		conn.Close()
	}
	// Wait for the server side to drain what it will get, then end the
	// stream in-process (reliable EOS; the wire parts raced it are shed).
	prev := IngestCounters{}
	for stable := 0; stable < 3; {
		c := src.Counters()
		if c == prev {
			stable++
		} else {
			stable, prev = 0, c
		}
		time.Sleep(10 * time.Millisecond)
	}
	for cam := range e.test.Cameras {
		if err := src.Offer(FramePart{Cam: cam, EOS: true}); err != nil {
			t.Fatal(err)
		}
	}

	last, emitted := -1, 0
	for {
		f, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Index <= last || f.Index >= n {
			t.Fatalf("emitted frame %d after %d (must ascend strictly within [0,%d))", f.Index, last, n)
		}
		last = f.Index
		emitted++
	}
	if emitted == 0 {
		t.Fatal("no frames survived the chaos run")
	}
	t.Logf("chaos: %d/%d frames assembled over %d dials, counters %+v", emitted, n, dials, src.Counters())
}

// TestChannelSourceProducerSurvivesShutdown is the satellite acceptance
// test: a producer feeding a ChannelSource through PushCtx/TryPush
// outlives an engine that stopped consuming, instead of blocking
// forever in Push.
func TestChannelSourceProducerSurvivesShutdown(t *testing.T) {
	e := getEnv(t)
	src := NewChannelSource(e.test.Cameras, 1)

	// Fill the buffer with no consumer: TryPush must shed, not block.
	if !src.TryPush(&e.test.Frames[0]) {
		t.Fatal("TryPush into an empty buffer failed")
	}
	if src.TryPush(&e.test.Frames[1]) {
		t.Fatal("TryPush into a full buffer succeeded")
	}

	// A producer blocked in PushCtx unblocks when the consumer's context
	// ends — the "engine shut down mid-stream" shape.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	pushErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 1; i < len(e.test.Frames); i++ {
			if err := src.PushCtx(ctx, &e.test.Frames[i]); err != nil {
				pushErr <- err
				return
			}
		}
		pushErr <- nil
	}()

	// Consume two frames, then stop consuming and cancel — as an engine
	// torn down mid-run would.
	for i := 0; i < 2; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	wg.Wait()
	if err := <-pushErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("producer exited with %v, want context.Canceled", err)
	}
}
