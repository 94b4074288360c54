package cluster

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"mvs/internal/clock"
)

// Backoff is a capped exponential retry schedule with deterministic
// jitter. The zero value gives 100ms, 200ms, 400ms, … capped at 5s,
// with ±20% jitter drawn from Seed — deterministic per (Seed, attempt),
// so a retry schedule replays exactly in tests and chaos runs.
type Backoff struct {
	// Base is the first delay (default 100ms).
	Base time.Duration
	// Max caps every delay (default 5s).
	Max time.Duration
	// Factor multiplies the delay each attempt (default 2).
	Factor float64
	// Jitter is the fractional spread: each delay is scaled by a factor
	// uniform in [1-Jitter, 1+Jitter) (default 0.2; negative disables).
	Jitter float64
	// Seed drives the jitter PRNG.
	Seed int64
}

// Delay returns the delay before retry attempt (0-based): attempt 0 is
// the wait after the first failure.
func (b Backoff) Delay(attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 5 * time.Second
	}
	factor := b.Factor
	if factor < 1 {
		factor = 2
	}
	jitter := b.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if attempt < 0 {
		attempt = 0
	}
	d := float64(base) * math.Pow(factor, float64(attempt))
	if d > float64(max) {
		d = float64(max)
	}
	if jitter > 0 {
		// Deterministic per (Seed, attempt): no shared PRNG state, so
		// concurrent callers and replayed schedules agree.
		rng := rand.New(rand.NewSource(b.Seed ^ int64(uint64(attempt+1)*0x9E3779B97F4A7C15)))
		d *= 1 + jitter*(2*rng.Float64()-1)
	}
	if d > float64(max) {
		d = float64(max)
	}
	return time.Duration(d)
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
	// IOTimeout bounds each message write on the live connection
	// (default 10s; see Client.SetIOTimeout).
	IOTimeout time.Duration
	// Backoff schedules the delays between reconnection attempts.
	Backoff Backoff
	// MaxAttempts bounds the connection attempts per operation (default
	// 4): an operation that cannot get a working connection in that many
	// tries returns its last error so the caller can degrade.
	MaxAttempts int
	// Clock abstracts the inter-attempt sleeps (default the system
	// clock; tests inject clock.Fake so schedules run without sleeping).
	Clock clock.Clock
	// Dial establishes raw connections (default TCP).
	Dial DialFunc
	// Logger, when non-nil, receives reconnect events.
	Logger *log.Logger
}

// ReconnectClient is a Client that survives connection loss: every
// operation transparently (re)dials with capped exponential backoff and
// retries before giving up, and a connection that fails mid-operation is
// dropped so the next operation starts fresh. Like Client it is
// single-owner: one goroutine drives operations; the counters are safe
// to read from others.
type ReconnectClient struct {
	cfg ReconnectConfig

	mu            sync.Mutex
	c             *Client
	ack           *HelloAck
	everConnected bool
	reconnects    int
	closed        bool
	// Byte totals of connections already torn down; live conn adds to
	// these in BytesSent/BytesReceived.
	sentPrev, recvPrev int64
}

// NewReconnectClient builds the client without touching the network;
// the first operation (or an explicit Connect) dials.
func NewReconnectClient(cfg ReconnectConfig) *ReconnectClient {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 10 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	return &ReconnectClient{cfg: cfg}
}

// errClosed marks operations on a closed ReconnectClient.
var errClosed = errors.New("cluster: reconnect client closed")

// ensure returns a live client, dialing if necessary. It does not
// retry — the operation loop owns the backoff schedule.
func (r *ReconnectClient) ensure() (*Client, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, errClosed
	}
	if r.c != nil {
		c := r.c
		r.mu.Unlock()
		return c, nil
	}
	r.mu.Unlock()

	raw, err := r.cfg.Dial(r.cfg.Addr, r.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", r.cfg.Addr, err)
	}
	c, err := NewClientConn(raw, r.cfg.Camera, r.cfg.DialTimeout, r.cfg.FrameW, r.cfg.FrameH)
	if err != nil {
		return nil, err
	}
	c.SetIOTimeout(r.cfg.IOTimeout)

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		c.Close()
		return nil, errClosed
	}
	r.c = c
	r.ack = c.Ack()
	if r.everConnected {
		r.reconnects++
		r.cfg.Logger.Printf("cluster: camera %d reconnected to %s (reconnect #%d)",
			r.cfg.Camera, r.cfg.Addr, r.reconnects)
	}
	r.everConnected = true
	r.mu.Unlock()
	return c, nil
}

// drop tears down a connection that failed mid-operation, so the next
// attempt re-dials. Only the currently installed connection is dropped
// (a racing Close may already have swapped it out).
func (r *ReconnectClient) drop(c *Client) {
	r.mu.Lock()
	if r.c == c {
		r.c = nil
		r.sentPrev += c.BytesSent()
		r.recvPrev += c.BytesReceived()
	}
	r.mu.Unlock()
	c.Close()
}

// do runs op with a live connection, re-dialing and retrying on failure
// under the backoff schedule. Returns the last error after MaxAttempts
// connection attempts.
func (r *ReconnectClient) do(op func(*Client) error) error {
	var lastErr error
	for attempt := 0; attempt < r.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.cfg.Clock.Sleep(r.cfg.Backoff.Delay(attempt - 1))
		}
		c, err := r.ensure()
		if err != nil {
			if errors.Is(err, errClosed) {
				return err
			}
			lastErr = err
			continue
		}
		if err := op(c); err != nil {
			lastErr = err
			r.drop(c)
			continue
		}
		return nil
	}
	r.cfg.Logger.Printf("cluster: camera %d gave up after %d attempts: %v",
		r.cfg.Camera, r.cfg.MaxAttempts, lastErr)
	return lastErr
}

// Connect eagerly establishes the connection (with retries), so callers
// can fetch the registration Ack before the first round.
func (r *ReconnectClient) Connect() error {
	return r.do(func(*Client) error { return nil })
}

// KeyFrame uploads a key-frame report and waits for the round's
// assignment, transparently reconnecting on connection failure. A nil
// error means a scheduler-issued assignment; an error after all retries
// means the caller should enter degraded mode and try again next round.
func (r *ReconnectClient) KeyFrame(frame int, tracks []TrackReport, deadline time.Duration) (*Assignment, error) {
	var a *Assignment
	err := r.do(func(c *Client) error {
		got, err := c.KeyFrame(frame, tracks, deadline)
		if err != nil {
			return err
		}
		a = got
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Ping sends a liveness heartbeat, reconnecting on failure. Between key
// frames this both detects a dead scheduler early and keeps this
// camera's lease fresh so the scheduler does not count it dead.
func (r *ReconnectClient) Ping(timeout time.Duration) error {
	return r.do(func(c *Client) error { return c.Ping(timeout) })
}

// Ack returns the most recent registration ack (nil before the first
// successful handshake).
func (r *ReconnectClient) Ack() *HelloAck {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ack
}

// Reconnects returns how many times the client has re-established a
// previously working connection.
func (r *ReconnectClient) Reconnects() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reconnects
}

// BytesSent returns uplink bytes across all connections so far.
func (r *ReconnectClient) BytesSent() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.sentPrev
	if r.c != nil {
		n += r.c.BytesSent()
	}
	return n
}

// BytesReceived returns downlink bytes across all connections so far.
func (r *ReconnectClient) BytesReceived() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.recvPrev
	if r.c != nil {
		n += r.c.BytesReceived()
	}
	return n
}

// Close drops the connection and fails all future operations.
func (r *ReconnectClient) Close() error {
	r.mu.Lock()
	c := r.c
	r.c = nil
	r.closed = true
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
