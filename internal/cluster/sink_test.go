package cluster

import (
	"bytes"
	"log"
	"math"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"mvs/internal/core"
	"mvs/internal/gpu"
	"mvs/internal/metrics"
	"mvs/internal/profile"
)

// TestRoundSnapshotPricesLikeExecutor is the law of a round snapshot's
// batch accounting: each camera's Batches, Images and BatchOccupancy are
// gpu.Executor.Price of the inspections assigned to it, bit for bit.
// Round 0 is built by hand: camera 0 mixes batch limits (17 size-64 and
// 2 size-512 tasks on a Xavier: a fill of 0.6875, not the 0.559 of
// images over capacity). The rest are seeded over mixed devices. A
// second snapshot on the same workspace equals the first.
func TestRoundSnapshotPricesLikeExecutor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	classes := []profile.DeviceClass{profile.JetsonXavier, profile.JetsonTX2, profile.JetsonNano}
	var solver core.Solver
	for r := 0; r < 50; r++ {
		m := &machine{cams: make([]core.CameraSpec, 2+r%5)}
		for i := range m.cams {
			m.cams[i] = core.CameraSpec{Index: i, Profile: profile.Derived(classes[r*i%3])}
		}
		var objects []core.ObjectSpec
		add := func(n, size int, cover ...int) {
			for ; n > 0; n-- {
				sz := map[int]int{}
				for _, c := range cover {
					sz[c] = size
				}
				objects = append(objects, core.ObjectSpec{ID: len(objects) + 1, Coverage: cover, Size: sz})
			}
		}
		if r == 0 {
			add(17, 64, 0)
			add(2, 512, 0)
			add(1, 128, 1)
			add(1, 256, 1, 0)
		}
		for n := rng.Intn(120); r > 0 && n > 0; n-- {
			add(1, 64<<rng.Intn(4), rng.Perm(len(m.cams))[:1+rng.Intn(len(m.cams))]...)
		}
		in := core.NewInstance(objects)
		sol, err := solver.Central(m.cams, in, core.CentralOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r == 0 {
			sol.Assign[len(objects)-1] = 1 // the shared object on camera 1
		}
		var work roundWork
		snap, err := m.roundSnapshot(7, in, sol, &work)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := m.roundSnapshot(7, in, sol, &work); err != nil || !reflect.DeepEqual(again, snap) {
			t.Fatalf("round %d: reused workspace gives %+v (%v), first %+v", r, again, err, snap)
		}
		if snap.Frame != 7 || snap.Objects != len(objects) || len(snap.Cameras) != len(m.cams) {
			t.Fatalf("round %d: snapshot %+v", r, snap)
		}
		for ci, c := range m.cams {
			var tasks []gpu.Task
			for j, o := range objects {
				if sol.Assign[j] == ci {
					tasks = append(tasks, gpu.Task{ObjectID: o.ID, Size: o.Size[ci]})
				}
			}
			ex, err := gpu.NewExecutor(c.Profile)
			if err != nil {
				t.Fatal(err)
			}
			cost, err := ex.Price(false, tasks)
			want := metrics.CameraSnapshot{
				Camera: ci, Latency: sol.Latencies[ci], Assignments: len(tasks),
				Batches: cost.Batches, Images: cost.Images, BatchOccupancy: cost.Occupancy,
			}
			got := snap.Cameras[ci]
			if err != nil || got != want || math.Float64bits(got.BatchOccupancy) != math.Float64bits(want.BatchOccupancy) {
				t.Fatalf("round %d camera %d: %+v, want %+v (%v)", r, ci, got, want, err)
			}
		}
		if got := snap.Cameras[0]; r == 0 && (got.Batches != 3 || got.Images != 19 || got.BatchOccupancy != 0.6875) {
			t.Fatalf("mixed-limit camera: %+v, want 3 batches, 19 images, occupancy 0.6875", got)
		}
	}
}

func TestSchedulerOptions(t *testing.T) {
	model, profiles := testModel(t)

	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	sink := metrics.NewChannelSink(1, 4)
	s, err := NewScheduler(model, profiles, 0, WithLogger(logger), WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if s.logger != logger {
		t.Fatal("WithLogger not applied")
	}
	if s.sink != metrics.Sink(sink) {
		t.Fatal("WithSink not applied")
	}

	// nil options keep the safe defaults rather than installing nils.
	s2, err := NewScheduler(model, profiles, 0, WithLogger(nil), WithSink(nil), WithRounds(nil))
	if err != nil {
		t.Fatal(err)
	}
	if s2.logger == nil {
		t.Fatal("WithLogger(nil) removed the default logger")
	}
	if _, ok := s2.sink.(metrics.NopSink); !ok {
		t.Fatalf("WithSink(nil) sink = %T, want NopSink", s2.sink)
	}
	if s2.roundSink != nil {
		t.Fatal("WithRounds(nil) installed a round sink")
	}
}

// startSchedulerWithSink mirrors startScheduler but attaches a sink and
// returns the Serve error channel so shutdown tests can assert on it.
func startSchedulerWithSink(t *testing.T, sink metrics.Sink) (*Scheduler, string, chan error) {
	t.Helper()
	model, profiles := testModel(t)
	s, err := NewScheduler(model, profiles, 0, WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	t.Cleanup(s.Close)
	return s, ln.Addr().String(), serveErr
}

func TestCloseUnblocksServe(t *testing.T) {
	s, addr, serveErr := startSchedulerWithSink(t, metrics.NopSink{})

	// A connected camera keeps a handler goroutine alive; Close must
	// still bring Serve down.
	c, err := Dial(addr, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s.Close()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v on clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}

	// Serve after Close declines immediately and closes the listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(ln); err != nil {
		t.Fatalf("Serve after Close = %v", err)
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("listener left open by post-Close Serve")
	}
}

// closedTrackingSink fails the test if a snapshot arrives after the
// owner declared the scheduler closed — the Close contract.
type closedTrackingSink struct {
	t *testing.T

	mu     sync.Mutex
	closed bool
	n      int
}

func (s *closedTrackingSink) RecordFrame(metrics.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.t.Error("snapshot recorded after Close returned")
	}
	s.n++
}

func (s *closedTrackingSink) Flush() error { return nil }

func (s *closedTrackingSink) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// TestNoSnapshotAfterClose closes the scheduler while a round is in
// flight. Whatever the round's fate, no snapshot may reach the sink
// after Close has returned. Run with -race this also exercises the
// Serve/handle/Close shutdown paths for data races.
func TestNoSnapshotAfterClose(t *testing.T) {
	sink := &closedTrackingSink{t: t}
	s, addr, serveErr := startSchedulerWithSink(t, sink)

	c0, err := Dial(addr, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := Dial(addr, 1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// Fire a round and immediately race Close against its completion.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = c0.KeyFrame(0, []TrackReport{
			{TrackID: 1, Box: [4]float64{600, 300, 700, 380}, Size: 128},
		}, 2*time.Second)
	}()
	go func() {
		defer wg.Done()
		_, _ = c1.KeyFrame(0, nil, 2*time.Second)
	}()

	s.Close()
	sink.markClosed()
	wg.Wait()

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v on clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Recording anything more now would be a bug whichever way the race
	// went; give late goroutines (there should be none) a beat to trip
	// the check before the test ends.
	time.Sleep(50 * time.Millisecond)
}
