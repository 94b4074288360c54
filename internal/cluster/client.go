package cluster

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"mvs/internal/flow"
)

// countingConn wraps a net.Conn with byte counters, so nodes can report
// their uplink/downlink usage against the testbed's budget (the paper's
// wired links were 100 Mbps down / 20 Mbps up).
type countingConn struct {
	net.Conn
	sent, received atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.received.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// Client is a camera node's connection to the central scheduler. It is
// single-owner: one goroutine drives KeyFrame/Ping at a time. For a
// client that survives connection loss, wrap the dial in a
// ReconnectClient.
type Client struct {
	camera int
	conn   *countingConn
	ack    *HelloAck
	io     time.Duration
	pings  int
}

// Dial connects to the scheduler and performs the hello handshake. When
// frameW and frameH are positive, the returned client carries the
// scheduler-computed cell-coverage masks (see Ack).
func Dial(addr string, camera int, timeout time.Duration, frameW, frameH float64) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	raw, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	return NewClientConn(raw, camera, timeout, frameW, frameH)
}

// NewClientConn performs the hello handshake over an established
// connection (e.g. one wrapped by a fault injector or custom dialer) and
// returns the registered client. On error the connection is closed. The
// handshake — write and ack read — is bounded by timeout.
func NewClientConn(raw net.Conn, camera int, timeout time.Duration, frameW, frameH float64) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn := &countingConn{Conn: raw}
	c := &Client{camera: camera, conn: conn}
	hello := &Hello{Camera: camera, FrameW: frameW, FrameH: frameH}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: set deadline: %w", err)
	}
	if err := WriteMessage(conn, &Envelope{Type: TypeHello, Hello: hello}); err != nil {
		conn.Close()
		return nil, err
	}
	// Wait for the registration ack so a successful handshake means the
	// scheduler has accepted this camera index.
	ack, err := ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: handshake: %w", err)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: clear deadline: %w", err)
	}
	switch ack.Type {
	case TypeHello:
		c.ack = ack.Ack
		return c, nil
	case TypeError:
		conn.Close()
		return nil, fmt.Errorf("cluster: registration rejected: %s", ack.Error)
	default:
		conn.Close()
		return nil, fmt.Errorf("cluster: unexpected handshake reply %q", ack.Type)
	}
}

// BytesSent returns the uplink bytes written so far (detection uploads).
func (c *Client) BytesSent() int64 { return c.conn.sent.Load() }

// BytesReceived returns the downlink bytes read so far (assignments and
// masks).
func (c *Client) BytesReceived() int64 { return c.conn.received.Load() }

// Ack returns the scheduler's registration reply (grid dimensions and
// static cell-coverage masks), or nil when the handshake carried no
// frame size.
func (c *Client) Ack() *HelloAck { return c.ack }

// Reconnects is always 0: a Client is one connection and never redials
// (ReconnectClient counts). It completes the link a node.Runtime steps
// over.
func (c *Client) Reconnects() int { return 0 }

// SetIOTimeout bounds each subsequent message write with a deadline
// (zero disables, the default). A peer that stops draining its socket
// then fails the writer within d instead of blocking it forever.
func (c *Client) SetIOTimeout(d time.Duration) { c.io = d }

// Close drops the connection.
func (c *Client) Close() error { return c.conn.Close() }

// write sends one envelope under the per-message write deadline.
func (c *Client) write(env *Envelope) error {
	if c.io > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.io)); err != nil {
			return fmt.Errorf("cluster: set write deadline: %w", err)
		}
		defer c.conn.SetWriteDeadline(time.Time{})
	}
	return WriteMessage(c.conn, env)
}

// ReportTracks converts live tracks to wire form.
func ReportTracks(tracks []*flow.Track) []TrackReport {
	out := make([]TrackReport, len(tracks))
	for i, t := range tracks {
		out[i] = TrackReport{
			TrackID: t.ID,
			Box:     [4]float64{t.Box.MinX, t.Box.MinY, t.Box.MaxX, t.Box.MaxY},
			Size:    t.QuantSize,
		}
	}
	return out
}

// KeyFrame uploads the camera's track list for a key frame and blocks
// until the scheduler replies with this round's assignment (or an
// error). deadline bounds the wait; zero means 10 seconds.
//
// While waiting, messages other than this round's assignment — stale
// assignments from earlier rounds, pongs, pings, and any type this
// client version does not know — are skipped, so protocol additions and
// reconnect races never fail a round.
func (c *Client) KeyFrame(frame int, tracks []TrackReport, deadline time.Duration) (*Assignment, error) {
	if deadline <= 0 {
		deadline = 10 * time.Second
	}
	env := &Envelope{
		Type:       TypeDetections,
		Detections: &Detections{Camera: c.camera, Frame: frame, Tracks: tracks},
	}
	if err := c.write(env); err != nil {
		return nil, err
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(deadline)); err != nil {
		return nil, fmt.Errorf("cluster: set deadline: %w", err)
	}
	defer c.conn.SetReadDeadline(time.Time{})
	for {
		reply, err := ReadMessage(c.conn)
		if err != nil {
			return nil, fmt.Errorf("cluster: camera %d await assignment: %w", c.camera, err)
		}
		switch reply.Type {
		case TypeAssignment:
			if reply.Assignment == nil {
				return nil, fmt.Errorf("cluster: empty assignment")
			}
			if reply.Assignment.Frame != frame {
				// A stale round (e.g. reconnect race); keep waiting.
				continue
			}
			return reply.Assignment, nil
		case TypeError:
			return nil, fmt.Errorf("cluster: scheduler error: %s", reply.Error)
		default:
			// Heartbeats and unknown (newer-protocol) types are not this
			// round's business; skip them.
			continue
		}
	}
}

// Ping sends a heartbeat and waits for the scheduler's pong, skipping
// unrelated messages (a stale assignment in flight is discardable — the
// round it answered has already been given up on). timeout bounds the
// whole exchange; zero means 2 seconds. A nil error means the scheduler
// is alive and this camera's liveness lease has been refreshed.
func (c *Client) Ping(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	c.pings++
	seq := c.pings
	env := &Envelope{Type: TypePing, Heartbeat: &Heartbeat{Camera: c.camera, Seq: seq}}
	if err := c.write(env); err != nil {
		return err
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return fmt.Errorf("cluster: set deadline: %w", err)
	}
	defer c.conn.SetReadDeadline(time.Time{})
	for {
		reply, err := ReadMessage(c.conn)
		if err != nil {
			return fmt.Errorf("cluster: camera %d await pong: %w", c.camera, err)
		}
		switch reply.Type {
		case TypePong:
			if reply.Heartbeat == nil || reply.Heartbeat.Seq == seq {
				return nil
			}
			continue // a pong for an older ping
		case TypeError:
			return fmt.Errorf("cluster: scheduler error: %s", reply.Error)
		default:
			continue
		}
	}
}
