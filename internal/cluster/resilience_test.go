package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"mvs/internal/metrics"
)

// countingWriter counts Write calls, so framing tests can assert a
// message leaves in one piece.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

func TestWriteMessageSingleWrite(t *testing.T) {
	// One message must be one Write: header and body split across two
	// writes interleave when two goroutines share a conn without the
	// sender mutex, and double the syscall count on the hot path.
	var w countingWriter
	env := &Envelope{Type: TypePing, Heartbeat: &Heartbeat{Camera: 3, Seq: 9}}
	if err := WriteMessage(&w, env); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("writes = %d, want 1", w.writes)
	}
	raw := w.buf.Bytes()
	if len(raw) < 5 {
		t.Fatalf("frame too short: %d bytes", len(raw))
	}
	if got := binary.BigEndian.Uint32(raw[:4]); int(got) != len(raw)-4 {
		t.Fatalf("length prefix %d, body %d", got, len(raw)-4)
	}
	out, err := ReadMessage(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != TypePing || out.Heartbeat == nil || out.Heartbeat.Seq != 9 {
		t.Fatalf("round trip = %+v", out)
	}
}

// pipeClient builds a Client directly over one end of a net.Pipe,
// bypassing the handshake, so protocol-level behaviour can be tested
// against a hand-scripted peer.
func pipeClient(camera int) (*Client, net.Conn) {
	a, b := net.Pipe()
	return &Client{camera: camera, conn: &countingConn{Conn: a}}, b
}

func TestKeyFrameSkipsUnknownAndStaleMessages(t *testing.T) {
	c, peer := pipeClient(0)
	defer c.Close()
	defer peer.Close()

	done := make(chan error, 1)
	go func() {
		defer close(done)
		// Consume the detections upload.
		if _, err := ReadMessage(peer); err != nil {
			done <- err
			return
		}
		// Reply with noise first: an unknown (future-protocol) type, an
		// unsolicited pong, and a stale assignment from an earlier round.
		// A tolerant client skips all three.
		noise := []*Envelope{
			{Type: "gossip"},
			{Type: TypePong, Heartbeat: &Heartbeat{Seq: 1}},
			{Type: TypeAssignment, Assignment: &Assignment{Frame: 10, Priority: []int{0}}},
			{Type: TypeAssignment, Assignment: &Assignment{Frame: 20, Priority: []int{0}, Keep: []int{5}}},
		}
		for _, env := range noise {
			if err := WriteMessage(peer, env); err != nil {
				done <- err
				return
			}
		}
	}()

	a, err := c.KeyFrame(20, []TrackReport{{TrackID: 5, Size: 64}}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a.Frame != 20 || len(a.Keep) != 1 || a.Keep[0] != 5 {
		t.Fatalf("assignment = %+v", a)
	}
	if err := <-done; err != nil && err != io.EOF {
		t.Fatal(err)
	}
}

func TestPingMatchesSequence(t *testing.T) {
	c, peer := pipeClient(2)
	defer c.Close()
	defer peer.Close()

	go func() {
		env, err := ReadMessage(peer)
		if err != nil {
			return
		}
		// An old pong first (wrong seq), then the right one.
		_ = WriteMessage(peer, &Envelope{Type: TypePong, Heartbeat: &Heartbeat{Seq: env.Heartbeat.Seq + 100}})
		_ = WriteMessage(peer, &Envelope{Type: TypePong, Heartbeat: env.Heartbeat})
	}()
	if err := c.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTimeoutSchedulesPartialRound(t *testing.T) {
	// Two cameras register, one reports: with a round timeout the round
	// must complete anyway, marked Partial in its snapshot, instead of
	// waiting on the silent camera forever.
	model, profiles := testModel(t)
	sink := metrics.NewChannelSink(1, 16)
	s, err := NewScheduler(model, profiles, 0,
		WithRoundTimeout(200*time.Millisecond), WithSink(sink))
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

	c0, err := Dial(addr, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := Dial(addr, 1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close() // registered but never reports

	a, err := c0.KeyFrame(0, []TrackReport{{TrackID: 1, Box: [4]float64{100, 100, 150, 150}, Size: 64}}, 10*time.Second)
	if err != nil {
		t.Fatalf("partial round never scheduled: %v", err)
	}
	if a.Frame != 0 {
		t.Fatalf("assignment frame = %d", a.Frame)
	}
	select {
	case snap := <-sink.Snapshots():
		if !snap.Partial {
			t.Fatalf("snapshot not marked partial: %+v", snap)
		}
		if snap.Source != metrics.SourceScheduler {
			t.Fatalf("snapshot source = %q", snap.Source)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no round snapshot")
	}
}

func TestLeaseExpiryUnblocksBarrier(t *testing.T) {
	// With a liveness lease, a camera that has gone silent longer than
	// the lease does not block the barrier: the round completes without
	// it and no round timeout is needed.
	model, profiles := testModel(t)
	s, err := NewScheduler(model, profiles, 0, WithLease(100*time.Millisecond))
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

	// Let camera 1's lease lapse, then report from camera 0 only.
	time.Sleep(250 * time.Millisecond)
	if _, err := c0.KeyFrame(0, []TrackReport{{TrackID: 1, Box: [4]float64{100, 100, 150, 150}, Size: 64}}, 5*time.Second); err != nil {
		t.Fatalf("round blocked on leased-out camera: %v", err)
	}
}

func TestChaosDeadCameraBroadcast(t *testing.T) {
	// The lease-fed data-plane health model: a camera that reported in
	// round 0 (and got assignments) goes silent; the next round must
	// complete without it, declare it dead in every reply, and charge
	// its orphaned assignments to the reassignment counter.
	model, profiles := testModel(t)
	sink := metrics.NewChannelSink(1, 16)
	s, err := NewScheduler(model, profiles, 0,
		WithLease(100*time.Millisecond), WithSink(sink))
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

	// Round 0: both cameras report disjoint tracks (no cross-camera
	// association), so each keeps its own object.
	c1done := make(chan error, 1)
	go func() {
		a, err := c1.KeyFrame(0, []TrackReport{
			{TrackID: 7, Box: [4]float64{900, 300, 980, 380}, Size: 64},
		}, 10*time.Second)
		if err == nil && len(a.Dead) > 0 {
			err = fmt.Errorf("round 0 declared %v dead", a.Dead)
		}
		c1done <- err
	}()
	a0, err := c0.KeyFrame(0, []TrackReport{
		{TrackID: 1, Box: [4]float64{100, 100, 150, 150}, Size: 64},
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(a0.Dead) > 0 {
		t.Fatalf("round 0 declared %v dead with both cameras live", a0.Dead)
	}
	if err := <-c1done; err != nil {
		t.Fatal(err)
	}
	round0 := <-sink.Snapshots()
	if round0.OutageFrames != 0 || round0.Reassignments != 0 {
		t.Fatalf("fault counters on a healthy round: %+v", round0)
	}
	if round0.Cameras[1].Assignments == 0 {
		t.Fatalf("camera 1 got no assignment in round 0: %+v", round0)
	}

	// Camera 1 goes silent past its lease; camera 0 reports round 10.
	time.Sleep(250 * time.Millisecond)
	a10, err := c0.KeyFrame(10, []TrackReport{
		{TrackID: 1, Box: [4]float64{110, 100, 160, 150}, Size: 64},
	}, 10*time.Second)
	if err != nil {
		t.Fatalf("round blocked on dead camera: %v", err)
	}
	if len(a10.Dead) != 1 || a10.Dead[0] != 1 {
		t.Fatalf("round 10 Dead = %v, want [1]", a10.Dead)
	}
	round10 := <-sink.Snapshots()
	if !round10.Partial {
		t.Fatalf("round with a dead camera not partial: %+v", round10)
	}
	if round10.OutageFrames != 1 {
		t.Fatalf("OutageFrames = %d, want 1", round10.OutageFrames)
	}
	if round10.Reassignments != round0.Cameras[1].Assignments {
		t.Fatalf("Reassignments = %d, want camera 1's prior %d assignments",
			round10.Reassignments, round0.Cameras[1].Assignments)
	}
}

func TestHeartbeatRefreshesLease(t *testing.T) {
	// White-box: a ping must advance the camera's lastSeen, which is what
	// keeps its lease fresh between key frames.
	s, addr := startScheduler(t)
	c0, err := Dial(addr, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()

	s.mu.Lock()
	before := s.conns[0].lastSeen
	s.mu.Unlock()
	time.Sleep(10 * time.Millisecond)
	if err := c0.Ping(0); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	after := s.conns[0].lastSeen
	s.mu.Unlock()
	if !after.After(before) {
		t.Fatalf("lastSeen not refreshed: %v -> %v", before, after)
	}
}

// TestNeverRegisteredCameraIsReleasedLikeASilentOne: a roster camera that
// never dials in holds the barrier, and the same two things release it
// that release a connected camera gone silent — its lease, counted from
// when the scheduler was built, or the round timeout.
func TestNeverRegisteredCameraIsReleasedLikeASilentOne(t *testing.T) {
	report := []TrackReport{{TrackID: 1, Box: [4]float64{100, 100, 150, 150}, Size: 64}}
	serve := func(t *testing.T, opt Option) (*Scheduler, *Client) {
		t.Helper()
		s, addr := startScheduler(t, opt)
		c0, err := Dial(addr, 0, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c0.Close() })
		return s, c0
	}

	t.Run("lease", func(t *testing.T) {
		s, c0 := serve(t, WithLease(time.Minute))
		// Within the lease the absent camera blocks the round.
		if _, err := c0.KeyFrame(0, report, 100*time.Millisecond); err == nil {
			t.Fatal("round 0 scheduled without camera 1 inside its lease")
		}
		// Age the scheduler past the lease instead of sleeping it out.
		s.mu.Lock()
		s.born = s.born.Add(-2 * time.Minute)
		s.mu.Unlock()
		a, err := c0.KeyFrame(10, report, 5*time.Second)
		if err != nil {
			t.Fatalf("round blocked on a camera whose lease ran out unregistered: %v", err)
		}
		if len(a.Dead) != 1 || a.Dead[0] != 1 {
			t.Fatalf("Dead = %v, want [1]", a.Dead)
		}
	})
	t.Run("lease timer", func(t *testing.T) {
		// The lease runs out while the round is pending and nothing else
		// happens to it — no further report, no disconnect, no round
		// timeout: the scheduler's own timer has to release it.
		const lease = 50 * time.Millisecond
		_, c0 := serve(t, WithLease(lease))
		start := time.Now()
		a, err := c0.KeyFrame(0, report, 5*time.Second)
		if err != nil {
			t.Fatalf("round 0 held until the client deadline: %v", err)
		}
		if waited := time.Since(start); waited > 20*lease {
			t.Fatalf("round 0 released after %v, lease is %v", waited, lease)
		}
		if len(a.Dead) != 1 || a.Dead[0] != 1 {
			t.Fatalf("Dead = %v, want [1]", a.Dead)
		}
	})
	t.Run("round timeout", func(t *testing.T) {
		_, c0 := serve(t, WithRoundTimeout(50*time.Millisecond))
		start := time.Now()
		if _, err := c0.KeyFrame(0, report, 5*time.Second); err != nil {
			t.Fatalf("partial round: %v", err)
		}
		if waited := time.Since(start); waited < 40*time.Millisecond {
			t.Fatalf("round scheduled after %v: the absent camera did not hold the barrier", waited)
		}
	})
}
