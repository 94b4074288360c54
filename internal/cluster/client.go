package cluster

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
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

// Client is a camera node's connection to the central scheduler: the TCP
// shell of a node machine (nodemachine.go), stamping its events with the
// wall clock and dialing, writing, reading and sleeping as it asks. A
// Client from Dial is one connection, which a failed operation closes; a
// ReconnectClient redials. One goroutine drives it.
type Client struct {
	conn *countingConn // nil while down
	ack  *HelloAck
	m    nodeMachine
	// io bounds each message write when positive.
	io time.Duration
	// redial establishes a new registered connection.
	redial func() (*Client, error)
	logger *log.Logger
	closed bool
	// Byte totals of connections already torn down.
	sentPrev, recvPrev int64
}

// errClosed marks operations on a closed client.
var errClosed = errors.New("cluster: client closed")

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
func NewClientConn(raw net.Conn, camera int, timeout time.Duration, frameW, frameH float64) (c *Client, err error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn := &countingConn{Conn: raw}
	defer func() {
		if err != nil {
			conn.Close()
		}
	}()
	hello := &Hello{Camera: camera, FrameW: frameW, FrameH: frameH}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, fmt.Errorf("cluster: set deadline: %w", err)
	}
	if err := WriteMessage(conn, &Envelope{Type: TypeHello, Hello: hello}); err != nil {
		return nil, err
	}
	// Wait for the registration ack so a successful handshake means the
	// scheduler has accepted this camera index.
	ack, err := ReadMessage(conn)
	if err != nil {
		return nil, fmt.Errorf("cluster: handshake: %w", err)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return nil, fmt.Errorf("cluster: clear deadline: %w", err)
	}
	switch ack.Type {
	case TypeHello:
		return newClient(camera, conn, ack.Ack), nil
	case TypeError:
		return nil, fmt.Errorf("cluster: registration rejected: %s", ack.Error)
	}
	return nil, fmt.Errorf("cluster: unexpected handshake reply %q", ack.Type)
}

// newClient is the shell of one registered connection, whose machine
// makes one attempt per operation.
func newClient(camera int, conn *countingConn, ack *HelloAck) *Client {
	return &Client{
		conn: conn, ack: ack, logger: log.New(io.Discard, "", 0),
		m:      nodeMachine{camera: camera, attempts: 1, up: true, ever: true},
		redial: func() (*Client, error) { return nil, errors.New("cluster: connection closed") },
	}
}

// KeyFrame uploads the camera's track list for a key frame and blocks
// until the scheduler replies with this round's assignment (or an
// error). deadline bounds each attempt's wait; zero means 10 seconds.
// Other messages — stale assignments, pongs, unknown types — are skipped
// (nodeMachine.reply).
func (c *Client) KeyFrame(frame int, tracks []TrackReport, deadline time.Duration) (*Assignment, error) {
	return c.do(func(t time.Time) nodeActions { return c.m.keyFrame(frame, tracks, deadline, t) })
}

// Ping sends a liveness heartbeat and waits up to timeout (zero: 2
// seconds) for the pong echoing it. A nil error means the scheduler is
// alive and this camera's lease refreshed; between key frames it keeps
// the lease fresh and detects a dead scheduler early.
func (c *Client) Ping(timeout time.Duration) error {
	_, err := c.do(func(t time.Time) nodeActions { return c.m.ping(timeout, t) })
	return err
}

// do begins an operation on the machine and carries out its actions
// until it settles, stamping each event with the time it happened.
func (c *Client) do(begin func(t time.Time) nodeActions) (*Assignment, error) {
	if c.closed {
		return nil, errClosed
	}
	now := time.Now()
	acts := begin(now)
	for {
		if acts.drop {
			c.drop()
		}
		event := c.m.tick
		switch {
		case acts.done:
			if acts.err != nil && c.m.attempts > 1 && !errors.Is(acts.err, errStaleRound) {
				c.logger.Printf("cluster: camera %d gave up after %d attempts: %v", c.m.camera, c.m.attempts, acts.err)
			}
			return acts.assignment, acts.err
		case acts.dial:
			err := c.dial()
			event = func(t time.Time) nodeActions { return c.m.dialed(err, t) }
		case acts.send != nil || acts.await:
			env, err := c.exchange(acts.send, now.Add(c.io), acts.wakeAt)
			event = func(t time.Time) nodeActions {
				if err != nil {
					return c.m.lost(err, t)
				}
				return c.m.reply(env, t)
			}
		default:
			time.Sleep(acts.wakeAt.Sub(now))
		}
		now = time.Now()
		acts = event(now)
	}
}

// dial installs a new registered connection.
func (c *Client) dial() error {
	fresh, err := c.redial()
	if err != nil {
		return err
	}
	c.conn, c.ack = fresh.conn, fresh.ack
	if c.m.ever {
		c.logger.Printf("cluster: camera %d reconnected (reconnect #%d)", c.m.camera, c.m.reconnects+1)
	}
	return nil
}

// exchange writes env, if any — by writeBy when the client bounds its
// writes — and reads one message by readBy.
func (c *Client) exchange(env *Envelope, writeBy, readBy time.Time) (*Envelope, error) {
	if env != nil {
		if c.io > 0 {
			if err := c.conn.SetWriteDeadline(writeBy); err != nil {
				return nil, fmt.Errorf("cluster: set write deadline: %w", err)
			}
			defer c.conn.SetWriteDeadline(time.Time{})
		}
		if err := WriteMessage(c.conn, env); err != nil {
			return nil, err
		}
	}
	if err := c.conn.SetReadDeadline(readBy); err != nil {
		return nil, fmt.Errorf("cluster: set deadline: %w", err)
	}
	defer c.conn.SetReadDeadline(time.Time{})
	reply, err := ReadMessage(c.conn)
	if err != nil {
		return nil, fmt.Errorf("cluster: camera %d await reply: %w", c.m.camera, err)
	}
	return reply, nil
}

// drop tears down the live connection.
func (c *Client) drop() error {
	if c.conn == nil {
		return nil
	}
	c.sentPrev, c.recvPrev = c.BytesSent(), c.BytesReceived()
	err := c.conn.Close()
	c.conn = nil
	return err
}

// BytesSent returns the uplink bytes written so far, over every
// connection (detection uploads).
func (c *Client) BytesSent() int64 {
	if c.conn == nil {
		return c.sentPrev
	}
	return c.sentPrev + c.conn.sent.Load()
}

// BytesReceived returns the downlink bytes read so far, over every
// connection (assignments and masks).
func (c *Client) BytesReceived() int64 {
	if c.conn == nil {
		return c.recvPrev
	}
	return c.recvPrev + c.conn.received.Load()
}

// Ack returns the scheduler's latest registration reply (grid dimensions
// and static cell-coverage masks), or nil before the first handshake or
// when it carried no frame size.
func (c *Client) Ack() *HelloAck { return c.ack }

// Close drops the connection and fails all future operations.
func (c *Client) Close() error {
	c.closed = true
	return c.drop()
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

// The reconnect schedule: the delay before retry n (0-based) is
// backoffBase·2ⁿ capped at backoffMax, spread by ±backoffJitter.
const (
	backoffBase   = 100 * time.Millisecond
	backoffMax    = 5 * time.Second
	backoffJitter = 0.2
)

// ioTimeout bounds each message write of a ReconnectClient: a scheduler
// that stops draining its socket fails the write within it instead of
// blocking the node forever.
const ioTimeout = 10 * time.Second

// Backoff is the capped exponential retry schedule: 100ms, 200ms, 400ms,
// … capped at 5s, each delay spread by ±20% jitter drawn from Seed —
// deterministic per (Seed, attempt), so a retry schedule replays exactly
// in tests and chaos runs.
type Backoff struct {
	// Seed drives the jitter.
	Seed int64
}

// Delay returns the delay before retry attempt (0-based): attempt 0 is
// the wait after the first failure.
func (b Backoff) Delay(attempt int) time.Duration {
	attempt = max(attempt, 0)
	d := float64(backoffMax)
	if attempt < 16 { // 100ms·2¹⁶ is far past the cap
		d = min(float64(backoffBase)*float64(uint(1)<<attempt), d)
	}
	// Deterministic per (Seed, attempt): no shared PRNG state, so
	// concurrent callers and replayed schedules agree.
	rng := rand.New(rand.NewSource(b.Seed ^ int64(uint64(attempt+1)*0x9E3779B97F4A7C15)))
	d *= 1 + backoffJitter*(2*rng.Float64()-1)
	return time.Duration(min(d, float64(backoffMax)))
}

// DialFunc establishes the transport a client handshakes over;
// injectable so tests and chaos runs can interpose internal/faults.
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// ReconnectConfig assembles a ReconnectClient.
type ReconnectConfig struct {
	// Addr is the scheduler address.
	Addr string
	// Camera is this node's index.
	Camera int
	// FrameW, FrameH are passed to the hello handshake (positive values
	// request cell-coverage masks).
	FrameW, FrameH float64
	// DialTimeout bounds each dial + handshake attempt (default 5s).
	DialTimeout time.Duration
	// Backoff schedules the delays between reconnection attempts.
	Backoff Backoff
	// MaxAttempts bounds the connection attempts per operation (default
	// 4): an operation that cannot get a working connection in that many
	// tries returns its last error so the caller can degrade.
	MaxAttempts int
	// Dial establishes raw connections (default TCP).
	Dial DialFunc
	// Logger, when non-nil, receives reconnect events.
	Logger *log.Logger
}

// ReconnectClient is a Client that survives connection loss: every
// operation transparently (re)dials with capped exponential backoff and
// retries before giving up, and a connection that fails mid-operation is
// dropped so the next operation starts fresh. Like Client it is
// single-owner.
type ReconnectClient struct {
	Client
}

// NewReconnectClient builds the client without touching the network;
// the first operation (or an explicit Connect) dials.
func NewReconnectClient(cfg ReconnectConfig) *ReconnectClient {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	r := &ReconnectClient{Client{
		m:      nodeMachine{camera: cfg.Camera, attempts: cfg.MaxAttempts, seed: cfg.Backoff.Seed},
		io:     ioTimeout,
		logger: cfg.Logger,
	}}
	r.redial = func() (*Client, error) {
		raw, err := cfg.Dial(cfg.Addr, cfg.DialTimeout)
		if err != nil {
			return nil, fmt.Errorf("cluster: dial %s: %w", cfg.Addr, err)
		}
		return NewClientConn(raw, cfg.Camera, cfg.DialTimeout, cfg.FrameW, cfg.FrameH)
	}
	return r
}

// Connect eagerly establishes the connection (with retries), so callers
// can fetch the registration Ack before the first round.
func (r *ReconnectClient) Connect() error {
	_, err := r.do(r.m.connect)
	return err
}

// Reconnects returns how many times the client has re-established a
// previously working connection.
func (r *ReconnectClient) Reconnects() int { return r.m.reconnects }
