package cluster

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
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
