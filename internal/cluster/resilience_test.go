package cluster

import (
	"bytes"
	"encoding/binary"
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
	return newClient(camera, &countingConn{Conn: a}, nil), b
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

func TestChaosDeadCameraBroadcast(t *testing.T) {
	// The lease-fed data-plane health model, through the scheduler shell
	// on virtual time: a camera that reported in round 0 (and got
	// assignments) goes silent; the next round completes without it,
	// declares it dead in every reply, and charges its orphaned
	// assignments to the reassignment counter.
	model, profiles := testModel(t)
	sink := metrics.NewChannelSink(1, 16)
	s, err := NewScheduler(model, profiles, 0,
		WithLease(100*time.Millisecond), WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	v := Virtualize(s, epoch)
	for cam := 0; cam < 2; cam++ {
		if ack, _ := v.Hello(cam+1, &Hello{Camera: cam}, epoch); ack.Type != TypeHello {
			t.Fatalf("camera %d not registered: %+v", cam, ack)
		}
	}
	report := func(cam, frame int, box [4]float64, d time.Duration) map[int]*Assignment {
		env := &Envelope{Type: TypeDetections, Detections: &Detections{Camera: cam, Frame: frame,
			Tracks: []TrackReport{{TrackID: cam + 1, Box: box, Size: 64}}}}
		_, msgs := v.Receive(cam, cam+1, env, at(d))
		out := map[int]*Assignment{}
		for _, m := range msgs {
			out[m.Camera] = m.Env.Assignment
		}
		return out
	}

	// Round 0: both cameras report disjoint tracks (no cross-camera
	// association), so each keeps its own object.
	if got := report(1, 0, [4]float64{900, 300, 980, 380}, 10*time.Millisecond); len(got) != 0 {
		t.Fatalf("round 0 answered before camera 0 reported: %v", got)
	}
	round0Replies := report(0, 0, [4]float64{100, 100, 150, 150}, 20*time.Millisecond)
	for cam := 0; cam < 2; cam++ {
		if a := round0Replies[cam]; a == nil || len(a.Dead) > 0 {
			t.Fatalf("round 0 reply to camera %d = %+v, want an assignment with no dead", cam, a)
		}
	}
	round0 := <-sink.Snapshots()
	if round0.OutageFrames != 0 || round0.Reassignments != 0 {
		t.Fatalf("fault counters on a healthy round: %+v", round0)
	}
	if round0.Cameras[1].Assignments == 0 {
		t.Fatalf("camera 1 got no assignment in round 0: %+v", round0)
	}

	// Camera 1 goes silent past its lease; camera 0 reports round 10.
	a10 := report(0, 10, [4]float64{110, 100, 160, 150}, 270*time.Millisecond)[0]
	if a10 == nil {
		t.Fatal("round blocked on dead camera")
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
