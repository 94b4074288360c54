package pipeline

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"mvs/internal/scene"
)

// This file is the live ingest front-end (docs/STREAMING.md §6): an
// IngestSource accepts per-camera frame parts — over TCP in
// length-prefixed JSON, or in-process through Offer — admits them into
// bounded per-camera queues under a deterministic shed policy, and
// assembles them into the scene.FrameTruth stream the Engine consumes
// through the ordinary Source interface.
//
// The shedding determinism contract: every admission decision is a pure
// function of (the incoming part's frame index, the frame indices
// already queued for that camera, the last frame index admitted for it,
// the queue capacity, the policy). No
// wall-clock time, no consumer state, no randomness — so the same
// offered sequence sheds the same set of parts at every worker count
// and on every host, and a recorded shed run replays bit-identically.
// The stall deadline is the one wall-clock element, and it only ever
// turns a hang into a typed error; it never influences which frames are
// shed.

// ShedPolicy selects what an over-offered admission queue drops.
type ShedPolicy int

const (
	// ShedDropOldest evicts the queue head (the oldest waiting frame)
	// when a new part arrives at a full queue: bounded delay, FIFO bias.
	ShedDropOldest ShedPolicy = iota
	// ShedFreshest clears the whole queue when a new part arrives at a
	// full queue, keeping only the newest frame: minimal staleness at
	// maximal drop cost (freshest-frame-wins).
	ShedFreshest
	// ShedStale prunes, on every offer, queued parts more than twice the
	// queue capacity in frames behind the incoming frame, then falls
	// back to drop-oldest if the queue is still full.
	ShedStale
)

// String returns the -shed-policy flag name of the policy.
func (p ShedPolicy) String() string {
	switch p {
	case ShedDropOldest:
		return "drop-oldest"
	case ShedFreshest:
		return "freshest"
	case ShedStale:
		return "stale"
	default:
		return fmt.Sprintf("ShedPolicy(%d)", int(p))
	}
}

// ParseShedPolicy maps a -shed-policy flag name to its policy.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "drop-oldest", "":
		return ShedDropOldest, nil
	case "freshest":
		return ShedFreshest, nil
	case "stale":
		return ShedStale, nil
	default:
		return 0, fmt.Errorf("unknown shed policy %q (want drop-oldest, freshest, stale)", s)
	}
}

// FramePart is one camera's contribution to one stream frame — the unit
// a live producer pushes. Frame indices must be strictly ascending per
// camera (a part at or below the camera's last admitted frame — a
// duplicate, a reordered straggler, a re-send — is shed). Objects optionally
// carries the frame's ground-truth object list for recall scoring; the
// first part to deliver it for a frame wins, so producers send it on one
// camera only. EOS marks the end of this camera's stream: once every
// camera has sent EOS and the queues drain, Next reports io.EOF.
type FramePart struct {
	Cam     int
	Frame   int
	Obs     []scene.Observation
	Objects []scene.ObjectState
	EOS     bool
}

// AppendFrameParts appends stream frame fi as a producer pushes it: one
// part per camera in camera order, the ground-truth objects riding on
// camera 0's part.
func AppendFrameParts(dst []FramePart, fi int, frame *scene.FrameTruth) []FramePart {
	for cam, obs := range frame.PerCamera {
		p := FramePart{Cam: cam, Frame: fi, Obs: obs}
		if cam == 0 {
			p.Objects = frame.Objects
		}
		dst = append(dst, p)
	}
	return dst
}

// AppendEOSParts appends the end-of-stream part of each of cams cameras.
func AppendEOSParts(dst []FramePart, cams int) []FramePart {
	for cam := 0; cam < cams; cam++ {
		dst = append(dst, FramePart{Cam: cam, EOS: true})
	}
	return dst
}

// StallError is the typed degraded state an IngestSource enters when the
// producer side goes quiet past the stall deadline while the engine is
// waiting in Next: instead of hanging forever on a half-dead source,
// Next returns this (wrapped by the engine, so errors.As sees it
// through Engine.Err).
type StallError struct {
	// Idle is how long the source had made no progress when the deadline
	// fired.
	Idle time.Duration
}

func (e *StallError) Error() string {
	return fmt.Sprintf("ingest stalled: no frame assembled for %v (producer gone quiet?)", e.Idle)
}

// IngestCounters is a point-in-time reading of an IngestSource's
// admission counters. Ingested and Shed are cumulative part counts;
// QueueDepth is the total parts currently queued across cameras.
type IngestCounters struct {
	Ingested   int
	Shed       int
	QueueDepth int
}

// IngestMeter exposes live admission counters for per-frame snapshot
// stamping (Config.Obs.Ingest).
type IngestMeter interface {
	Counters() IngestCounters
}

// IngestConfig tunes an IngestSource. The zero value is usable:
// drop-oldest shedding, default queue capacity, no stall deadline.
type IngestConfig struct {
	// Queue is the per-camera admission queue capacity in frame parts
	// (<= 0 defaults to 16).
	Queue int
	// Policy selects the overflow shed policy.
	Policy ShedPolicy
	// Stall sets the stall deadline: when > 0 and a Next call waits until
	// this long after the last assembly (or construction, before the
	// first), Next returns a *StallError instead of blocking forever.
	// 0 disables.
	Stall time.Duration
}

// IngestSource is a live, push-driven Source: producers Offer per-camera
// FrameParts (directly, or over TCP via Serve), a bounded per-camera
// admission queue sheds overload deterministically, and Next assembles
// the queued parts into whole frames for the engine. Offer never blocks
// the producer; Next blocks until a frame is assemblable, the stream
// ends, or the stall deadline passes.
//
// The source is a thin shell over a clock-free ingest machine
// (ingestmachine.go), which makes every decision: the shell holds the
// listener, one decoder per connection, one mutex, and one timer, armed
// to the stall deadline only while a Next waits.
//
// The source owns every list it holds and allocates nothing per frame
// once warm: Offer copies a part's lists into a queue slot's storage,
// Next lends the assembled frame, and the lists move between slots and
// the frame without being copied again. What it keeps is, per camera,
// its ring's slots each holding the largest part that slot has seen,
// plus the lent frame's list; and one ground-truth list per frame index
// that an admitted part carried objects for and assembly has not yet
// passed, plus the lent frame's and at most Queue+1 spare ones kept for
// reuse (docs/STREAMING.md §6).
type IngestSource struct {
	cams []*scene.Camera

	mu    sync.Mutex
	cond  *sync.Cond
	m     ingestMachine
	timer *time.Timer // wakes a waiting Next at the stall deadline; stopped otherwise

	ln    net.Listener
	conns map[net.Conn]struct{}
}

// NewIngestSource builds an in-process ingest source for a fixed roster.
// Call Serve to additionally accept TCP producers; the source starts no
// goroutine before that.
func NewIngestSource(cams []*scene.Camera, cfg IngestConfig) (*IngestSource, error) {
	if len(cams) == 0 {
		return nil, fmt.Errorf("pipeline: ingest: no cameras")
	}
	s := &IngestSource{
		cams:  cams,
		m:     newIngestMachine(len(cams), cfg, time.Now()),
		conns: make(map[net.Conn]struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.timer = time.AfterFunc(time.Hour, s.wake)
	s.timer.Stop() // Next arms it
	return s, nil
}

// Cameras returns the roster given at construction.
func (s *IngestSource) Cameras() []*scene.Camera { return s.cams }

// Counters returns a point-in-time reading of the admission counters.
func (s *IngestSource) Counters() IngestCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.counters()
}

// Offer admits one frame part (or records a camera's EOS). It never
// blocks: when the camera's queue is full the shed policy decides what
// drops, deterministically in the queue contents and the part's frame
// index alone. An admitted part's lists are copied, so the caller keeps
// its part and may reuse its storage as soon as Offer returns. Errors
// are reserved for misuse (bad camera index, offer after Close) — a shed
// part is not an error.
func (s *IngestSource) Offer(p FramePart) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	wake, err := s.m.offer(p)
	if wake {
		s.cond.Broadcast()
	}
	return err
}

// Next assembles and returns the next frame: once every camera is ready
// (has a queued part, sent EOS, or the source is closed), the lowest
// queued frame index is emitted — cameras holding exactly that frame
// contribute their observations, cameras already past it contribute
// none (they shed it, an outage-shaped gap). Next blocks while any
// camera is silent, returns io.EOF once every stream ended and the
// queues drained, and returns a *StallError when it has waited until
// Stall after the last assembly (or construction). The frame is lent:
// it and its lists are valid until the next Next.
func (s *IngestSource) Next() (*scene.FrameTruth, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		f, wakeAt, err := s.m.next(time.Now())
		if f != nil || err != nil {
			return f, err
		}
		if !wakeAt.IsZero() {
			s.timer.Reset(time.Until(wakeAt))
		}
		s.cond.Wait()
		s.timer.Stop()
	}
}

// wake lets a waiting Next look at the clock again.
func (s *IngestSource) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Serve starts accepting TCP producers on ln (pass it through
// faults.Injector.Listener to put the ingest path under chaos). Each
// connection carries a stream of length-prefixed FramePart messages;
// decode errors close that connection only. Serve returns immediately;
// Close stops the accept loop and open connections.
func (s *IngestSource) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.m.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			go s.serveConn(conn)
		}
	}()
}

// serveConn feeds one connection's parts to Offer until its stream ends
// or fails, closes it, and returns the error that ended it.
func (s *IngestSource) serveConn(conn net.Conn) error {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// One reader, one body buffer and one set of lists for the
	// connection's whole stream; Offer copies what it admits.
	d := partDecoder{r: bufio.NewReaderSize(conn, connReadBuffer)}
	for {
		p, err := d.next()
		if err == nil {
			err = s.Offer(p)
		}
		if err != nil {
			return err
		}
	}
}

// Close ends the stream: the listener and open connections shut down,
// later Offers error, and Next drains what is queued before reporting
// io.EOF. Idempotent.
func (s *IngestSource) Close() error {
	s.mu.Lock()
	if s.m.closed {
		s.mu.Unlock()
		return nil
	}
	s.m.close()
	s.timer.Stop()
	ln, conns := s.ln, s.conns
	s.conns = map[net.Conn]struct{}{}
	s.cond.Broadcast()
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for c := range conns {
		c.Close()
	}
	return nil
}

// The wire protocol: each message is a 4-byte big-endian length followed
// by that many bytes of JSON — one FramePart, observation and object
// lists in the scene wire schema (exact float64 round-trip). The message
// is what EncodeFramePart writes; a body in any other spelling is an
// error naming the byte offset where the scan stopped (docs/STREAMING.md
// §6).

const (
	// maxWirePart bounds a single message so a corrupt length prefix
	// cannot force an absurd allocation.
	maxWirePart = 16 << 20
	// bodyStep is how far the body buffer may grow ahead of the bytes that
	// have arrived: a length prefix is a claim, and a producer that sends
	// one and stalls holds this much, not maxWirePart. It is also the
	// largest buffer a decoder keeps between messages.
	bodyStep = 64 << 10
	// connReadBuffer is a connection's read buffer: a few frames of a
	// 16-camera fleet's parts per read call.
	connReadBuffer = 32 << 10
)

// appendFramePart appends the body of p's message.
func appendFramePart(dst []byte, p FramePart) ([]byte, error) {
	dst = append(dst, `{"cam":`...)
	dst = strconv.AppendInt(dst, int64(p.Cam), 10)
	dst = append(dst, `,"frame":`...)
	dst = strconv.AppendInt(dst, int64(p.Frame), 10)
	var err error
	if !p.EOS {
		if dst, err = scene.AppendObservations(append(dst, `,"obs":`...), p.Obs); err != nil {
			return nil, err
		}
	}
	if len(p.Objects) > 0 {
		if dst, err = scene.AppendObjects(append(dst, `,"objects":`...), p.Objects); err != nil {
			return nil, err
		}
	}
	if p.EOS {
		dst = append(dst, `,"eos":true`...)
	}
	return append(dst, '}'), nil
}

// EncodeFramePart writes one length-prefixed FramePart message, header
// and body in one Write.
func EncodeFramePart(w io.Writer, p FramePart) error {
	// Room for the header, the envelope and a typical element per entry.
	msg := make([]byte, 4, 64+100*len(p.Obs)+170*len(p.Objects))
	msg, err := appendFramePart(msg, p)
	if err != nil {
		return fmt.Errorf("pipeline: encode frame part: %w", err)
	}
	n := len(msg) - 4
	if n > maxWirePart {
		return fmt.Errorf("pipeline: frame part message is %d bytes (max %d)", n, maxWirePart)
	}
	binary.BigEndian.PutUint32(msg, uint32(n))
	_, err = w.Write(msg)
	return err
}

// DecodeFramePart reads one length-prefixed FramePart message into a
// part the caller owns, its lists allocated at their exact size. A body
// not spelled as EncodeFramePart spells it is an error.
func DecodeFramePart(r io.Reader) (FramePart, error) {
	d := partDecoder{r: r}
	return d.next()
}

// partDecoder reads the messages of one stream, reusing its header and
// body buffers and the storage of the part's lists from one message to
// the next.
type partDecoder struct {
	r    io.Reader
	hdr  [4]byte
	body []byte
	obs  []scene.Observation // storage of the last part's Obs, kept while a part has none
	objs []scene.ObjectState // and of its Objects
	stop int                 // where the last scan stopped in its body
}

// next reads the next message. The part is lent: its lists are valid
// until the next call, and a warm decoder allocates nothing for a part
// no larger than the largest it has read.
func (d *partDecoder) next() (FramePart, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return FramePart{}, err
	}
	n := int(binary.BigEndian.Uint32(d.hdr[:]))
	if n == 0 || n > maxWirePart {
		return FramePart{}, fmt.Errorf("pipeline: frame part length %d out of range (0,%d]", n, maxWirePart)
	}
	d.body = d.body[:0]
	for len(d.body) < n {
		have := len(d.body)
		step := min(n-have, bodyStep)
		if need := have + step; need > cap(d.body) {
			d.body = append(make([]byte, 0, max(need, 2*cap(d.body))), d.body...)
		}
		d.body = d.body[:have+step]
		m, err := io.ReadFull(d.r, d.body[have:])
		d.body = d.body[:have+m]
		if err != nil {
			if err == io.EOF && len(d.body) > 0 {
				err = io.ErrUnexpectedEOF // the message ended mid-body, not between messages
			}
			return FramePart{}, err
		}
	}
	p, ok := d.scan(d.body)
	if cap(d.body) > bodyStep {
		// Neither the buffer nor the lists of a message that large are
		// kept for the rest of the stream.
		d.body, d.obs, d.objs = nil, nil, nil
	}
	if !ok {
		return FramePart{}, fmt.Errorf("pipeline: decode frame part: not a canonical part at byte %d", d.stop)
	}
	return p, nil
}

// scan reads a body spelled exactly as EncodeFramePart spells it,
// retaining none of its bytes, its lists on the decoder's storage, which
// keeps them for the next body; ok is false for every other body, valid
// JSON or not. Either way d.stop is where the scan stopped.
func (d *partDecoder) scan(body []byte) (p FramePart, ok bool) {
	b, ok := cut(body, `{"cam":`)
	if ok {
		p.Cam, b, ok = scene.ScanInt(b)
	}
	if ok {
		b, ok = cut(b, `,"frame":`)
	}
	if ok {
		p.Frame, b, ok = scene.ScanInt(b)
	}
	if rest, found := cut(b, `,"obs":`); ok && found {
		p.Obs, b, ok = scene.ScanObservations(d.obs, rest)
	}
	if rest, found := cut(b, `,"objects":`); ok && found {
		p.Objects, b, ok = scene.ScanObjects(d.objs, rest)
	}
	if ok {
		b, p.EOS = cut(b, `,"eos":true`)
		b, ok = cut(b, "}")
		ok = ok && len(b) == 0
	}
	d.stop = len(body) - len(b)
	if len(p.Obs) > 0 {
		d.obs = p.Obs
	}
	if len(p.Objects) > 0 {
		d.objs = p.Objects
	}
	return p, ok
}

// cut drops lit from the front of b, if b starts with it.
func cut(b []byte, lit string) ([]byte, bool) {
	if len(b) < len(lit) || string(b[:len(lit)]) != lit {
		return b, false
	}
	return b[len(lit):], true
}
