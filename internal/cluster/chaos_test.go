package cluster

import (
	"net"
	"sync"
	"testing"
	"time"

	"mvs/internal/faults"
	"mvs/internal/metrics"
)

// TestChaosReconnectUnderWriteCut drives two reconnecting clients
// through key-frame rounds while a deterministic fault schedule kills
// their connections every few writes. Liveness is the claim: every
// round either yields an assignment or fails fast enough to move on,
// the clients reconnect, and the scheduler survives to answer a final
// ping. Run under -race by CI's chaos smoke step.
func TestChaosReconnectUnderWriteCut(t *testing.T) {
	t.Parallel() // mostly backoff sleeps
	model, profiles := testModel(t)
	sink := metrics.NewChannelSink(1, 256)
	s, err := NewScheduler(model, profiles, 0,
		WithRoundTimeout(300*time.Millisecond),
		WithLease(2*time.Second),
		WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	defer func() {
		s.Close()
		ln.Close()
	}()
	addr := ln.Addr().String()

	// Grace lets the handshake through; every 4th post-grace write kills
	// the connection — deterministic, so faults are guaranteed to fire.
	inj := faults.New(faults.Config{Seed: 11, Grace: 2, WriteCut: 4})

	const rounds = 12
	runCam := func(cam int, okRounds *int, rc **ReconnectClient, wg *sync.WaitGroup) {
		defer wg.Done()
		c := NewReconnectClient(ReconnectConfig{
			Addr: addr, Camera: cam,
			DialTimeout: 2 * time.Second,
			Backoff:     Backoff{Seed: int64(cam)},
			MaxAttempts: 2,
			Dial:        DialFunc(inj.Dialer(nil)),
		})
		*rc = c
		for frame := 0; frame < rounds*10; frame += 10 {
			rep := []TrackReport{{
				TrackID: frame + cam + 1,
				Box:     [4]float64{100, 100, 150, 150},
				Size:    64,
			}}
			a, err := c.KeyFrame(frame, rep, 3*time.Second)
			if err != nil {
				continue // degraded round: the node moves on without guidance
			}
			if a.Frame != frame {
				t.Errorf("camera %d: got assignment for frame %d, want %d", cam, a.Frame, frame)
				return
			}
			*okRounds++
		}
	}

	var wg sync.WaitGroup
	var ok0, ok1 int
	var rc0, rc1 *ReconnectClient
	wg.Add(2)
	go runCam(0, &ok0, &rc0, &wg)
	go runCam(1, &ok1, &rc1, &wg)
	wg.Wait()
	defer rc0.Close()
	defer rc1.Close()

	if inj.Faults() == 0 {
		t.Fatal("no faults injected: the chaos schedule never fired")
	}
	if rc0.Reconnects()+rc1.Reconnects() == 0 {
		t.Fatal("no reconnects despite injected connection kills")
	}
	// WriteCut kills every connection after a handful of rounds, so most
	// rounds still succeed via reconnect; requiring half guards liveness
	// without racing the exact schedule.
	if ok0+ok1 < rounds {
		t.Fatalf("only %d+%d/%d×2 rounds got assignments", ok0, ok1, rounds)
	}

	// The scheduler is still alive after the storm: a fresh, un-faulted
	// client can register and ping.
	probe, err := Dial(addr, 0, 2*time.Second, 0, 0)
	if err != nil {
		t.Fatalf("scheduler dead after chaos: %v", err)
	}
	defer probe.Close()
	if err := probe.Ping(2 * time.Second); err != nil {
		t.Fatalf("scheduler unresponsive after chaos: %v", err)
	}
}
