package pipeline

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"mvs/internal/clock"
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
// The watchdog is the one wall-clock element, and it only ever turns a
// hang into a typed error; it never influences which frames are shed.

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

// StallError is the typed degraded state the watchdog surfaces when the
// producer side goes quiet past the deadline while the engine is
// waiting in Next: instead of hanging forever on a half-dead source,
// Next returns this (wrapped by the engine, so errors.As sees it
// through Engine.Err).
type StallError struct {
	// Idle is how long the source had made no progress when the watchdog
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
// drop-oldest shedding, default queue capacity, watchdog disabled.
type IngestConfig struct {
	// Queue is the per-camera admission queue capacity in frame parts
	// (<= 0 defaults to 16).
	Queue int
	// Policy selects the overflow shed policy.
	Policy ShedPolicy
	// Stall arms the watchdog: when > 0 and a Next call has been waiting
	// with no frame assembled for at least this long, Next returns a
	// *StallError instead of blocking forever. 0 disables.
	Stall time.Duration
	// Clock is the watchdog's time source (nil = system). Tests inject
	// clock.Fake to drive the deadline without real sleeps.
	Clock clock.Clock
}

// IngestSource is a live, push-driven Source: producers Offer per-camera
// FrameParts (directly, or over TCP via Serve), a bounded per-camera
// admission queue sheds overload deterministically, and Next assembles
// the queued parts into whole frames for the engine. Offer never blocks
// the producer; Next blocks until a frame is assemblable, the stream
// ends, or the watchdog declares a stall.
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
	cams     []*scene.Camera
	queueCap int
	policy   ShedPolicy
	stall    time.Duration
	clk      clock.Clock

	mu       sync.Mutex
	cond     *sync.Cond
	queues   []partQueue
	eos      []bool
	objects  objectTable
	frame    scene.FrameTruth      // the lent frame, valid until the next Next
	lent     [][]scene.Observation // per camera: storage of frame.PerCamera, kept while it is nil
	closed   bool
	waiting  int
	stallErr error
	last     time.Time // last assembly progress (watchdog reference)

	ingested int
	shed     int

	ln    net.Listener
	conns map[net.Conn]struct{}
}

// owned is a list copied into storage its holder keeps: the copy is nil
// for a nil list and empty for an empty one, and the storage outlives
// the list, so the next copy reuses it and grows it only geometrically.
type owned[T any] struct {
	list []T // nil, or buf[:n] (an empty non-nil list while buf is nil)
	buf  []T
}

func (o *owned[T]) set(src []T) {
	if src == nil {
		o.list = nil
		return
	}
	o.buf = append(o.buf[:0], src...)
	o.list = o.buf
	if o.list == nil {
		o.list = []T{}
	}
}

// queuedPart is one ring slot: an admitted part's frame index and its
// observation list, on storage the slot keeps across pops.
type queuedPart struct {
	frame int
	obs   owned[scene.Observation]
}

// partQueue is one camera's admission queue: a ring that doubles until
// it holds the deepest backlog the shed policy lets it see and never
// allocates after that, and the camera's high-water mark, the frame of
// the last part it admitted.
type partQueue struct {
	ring     []queuedPart // len is zero or a power of two
	head     int
	n        int
	last     int  // the last admitted frame, once admitted is set
	admitted bool // a part has been admitted
}

// at returns the i-th queued part, oldest first.
func (q *partQueue) at(i int) *queuedPart { return &q.ring[(q.head+i)&(len(q.ring)-1)] }

// push queues a part of frame fi, copying obs into the tail slot's
// storage.
func (q *partQueue) push(fi int, obs []scene.Observation) {
	if q.n == len(q.ring) {
		grown := make([]queuedPart, max(4, 2*len(q.ring)))
		for i := 0; i < q.n; i++ {
			grown[i] = *q.at(i)
		}
		q.ring, q.head = grown, 0
	}
	slot := q.at(q.n)
	q.n++
	slot.frame = fi
	slot.obs.set(obs)
}

// drop discards the head part; its slot keeps the storage.
func (q *partQueue) drop() {
	q.at(0).obs.list = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
}

// lend pops the head part and returns its list. The list's storage goes
// to *held, and the storage *held had — the list lent before, which
// nobody reads any more — goes to the slot in exchange.
func (q *partQueue) lend(held *[]scene.Observation) []scene.Observation {
	slot := q.at(0)
	list := slot.obs.list
	slot.obs.buf, *held = *held, slot.obs.buf
	q.drop()
	return list
}

// objectTable holds the ground truth of the frames assembly has not yet
// passed, sorted by frame, each list on storage the table owns. The
// storage of a passed frame's list goes to spare for the next frame to
// deliver one, up to keep lists; beyond that it is left to the
// collector. The lent frame's list stays out until the next take.
type objectTable struct {
	pending []pendingObjects
	spare   [][]scene.ObjectState
	keep    int
	lent    []scene.ObjectState
}

type pendingObjects struct {
	frame int
	objs  owned[scene.ObjectState]
}

// add copies frame fi's objects in, unless the frame has some already:
// the first delivery wins.
func (t *objectTable) add(fi int, objs []scene.ObjectState) {
	i := len(t.pending)
	for i > 0 && t.pending[i-1].frame >= fi {
		i--
	}
	if i < len(t.pending) && t.pending[i].frame == fi {
		return
	}
	e := pendingObjects{frame: fi}
	if n := len(t.spare); n > 0 {
		e.objs.buf, t.spare[n-1] = t.spare[n-1], nil
		t.spare = t.spare[:n-1]
	}
	e.objs.set(objs)
	t.pending = slices.Insert(t.pending, i, e)
}

// take drops every frame up to fi and returns frame fi's objects, nil
// when it has none. The list is lent until the next take.
func (t *objectTable) take(fi int) []scene.ObjectState {
	t.recycle(t.lent)
	t.lent = nil
	var out []scene.ObjectState
	k := 0
	for ; k < len(t.pending) && t.pending[k].frame <= fi; k++ {
		e := &t.pending[k]
		if e.frame == fi {
			out, t.lent = e.objs.list, e.objs.buf
		} else {
			t.recycle(e.objs.buf)
		}
	}
	n := copy(t.pending, t.pending[k:])
	clear(t.pending[n:])
	t.pending = t.pending[:n]
	return out
}

// recycle keeps buf for a later frame's objects while spare has room.
func (t *objectTable) recycle(buf []scene.ObjectState) {
	if buf != nil && len(t.spare) < t.keep {
		t.spare = append(t.spare, buf)
	}
}

// NewIngestSource builds an in-process ingest source for a fixed roster.
// Call Serve to additionally accept TCP producers. The watchdog
// goroutine (when cfg.Stall > 0) runs until Close or the first stall.
func NewIngestSource(cams []*scene.Camera, cfg IngestConfig) (*IngestSource, error) {
	if len(cams) == 0 {
		return nil, fmt.Errorf("pipeline: ingest: no cameras")
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	s := &IngestSource{
		cams:     cams,
		queueCap: cfg.Queue,
		policy:   cfg.Policy,
		stall:    cfg.Stall,
		clk:      cfg.Clock,
		queues:   make([]partQueue, len(cams)),
		eos:      make([]bool, len(cams)),
		objects:  objectTable{keep: cfg.Queue + 1},
		frame:    scene.FrameTruth{PerCamera: make([][]scene.Observation, len(cams))},
		lent:     make([][]scene.Observation, len(cams)),
		conns:    make(map[net.Conn]struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.last = s.clk.Now()
	if s.stall > 0 {
		go s.watchdog()
	}
	return s, nil
}

// Cameras returns the roster given at construction.
func (s *IngestSource) Cameras() []*scene.Camera { return s.cams }

// Counters returns a point-in-time reading of the admission counters.
func (s *IngestSource) Counters() IngestCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := IngestCounters{Ingested: s.ingested, Shed: s.shed}
	for i := range s.queues {
		c.QueueDepth += s.queues[i].n
	}
	return c
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
	if s.closed {
		return fmt.Errorf("pipeline: ingest: Offer after Close")
	}
	if p.Cam < 0 || p.Cam >= len(s.queues) {
		return fmt.Errorf("pipeline: ingest: camera %d out of range [0,%d)", p.Cam, len(s.queues))
	}
	if p.EOS {
		if !s.eos[p.Cam] {
			s.eos[p.Cam] = true
			s.cond.Broadcast()
		}
		return nil
	}
	if s.eos[p.Cam] {
		s.shed++ // a part after the camera's own EOS can never be emitted
		return nil
	}
	q := &s.queues[p.Cam]
	if !s.admitLocked(q, p.Frame) {
		return nil
	}
	silent := q.n == 0
	q.push(p.Frame, p.Obs)
	s.ingested++
	if p.Objects != nil {
		s.objects.add(p.Frame, p.Objects)
	}
	// Next waits for every camera to be ready, so only the part that ends
	// a camera's silence can be the one that makes a frame assemblable.
	if silent && s.readyLocked() {
		s.cond.Broadcast()
	}
	return nil
}

// admitLocked decides, on frame indices alone, whether a part of frame fi
// joins camera queue q: it sheds what the policy drops to make room,
// counts every shed part, and reports whether the part is admitted.
func (s *IngestSource) admitLocked(q *partQueue, fi int) bool {
	// A camera's admitted frames ascend strictly: a part at or below the
	// last one admitted — a duplicate, a reordered straggler, a re-send of
	// a frame already emitted — is shed rather than corrupting assembly
	// order.
	if q.admitted && fi <= q.last {
		s.shed++
		return false
	}
	if s.policy == ShedStale {
		cut := fi - 2*s.queueCap
		for q.n > 0 && q.at(0).frame < cut {
			q.drop()
			s.shed++
		}
	}
	if q.n >= s.queueCap {
		drop := 1
		if s.policy == ShedFreshest {
			drop = q.n
		}
		for ; drop > 0; drop-- {
			q.drop()
			s.shed++
		}
	}
	q.last, q.admitted = fi, true
	return true
}

// Next assembles and returns the next frame: once every camera is ready
// (has a queued part, sent EOS, or the source is closed), the lowest
// queued frame index is emitted — cameras holding exactly that frame
// contribute their observations, cameras already past it contribute
// none (they shed it, an outage-shaped gap). Next blocks while any
// camera is silent, returns io.EOF once every stream ended and the
// queues drained, and returns a *StallError when the watchdog deadline
// passes with no assembly progress. The frame is lent: it and its lists
// are valid until the next Next.
func (s *IngestSource) Next() (*scene.FrameTruth, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stallErr != nil {
			return nil, s.stallErr
		}
		if s.readyLocked() {
			if !s.anyQueuedLocked() {
				return nil, io.EOF
			}
			return s.assembleLocked(), nil
		}
		s.waiting++
		s.cond.Wait()
		s.waiting--
	}
}

// readyLocked reports whether every camera can contribute a decision:
// a queued part, its EOS, or a closed source.
func (s *IngestSource) readyLocked() bool {
	for i := range s.queues {
		if s.queues[i].n == 0 && !s.eos[i] && !s.closed {
			return false
		}
	}
	return true
}

func (s *IngestSource) anyQueuedLocked() bool {
	for i := range s.queues {
		if s.queues[i].n > 0 {
			return true
		}
	}
	return false
}

// assembleLocked pops the lowest queued frame index into the lent frame.
// The previous frame's lists go back into the popped slots: the engine
// asked for this frame, so it reads that one no more.
func (s *IngestSource) assembleLocked() *scene.FrameTruth {
	next, found := 0, false
	for i := range s.queues {
		if q := &s.queues[i]; q.n > 0 && (!found || q.at(0).frame < next) {
			next, found = q.at(0).frame, true
		}
	}
	f := &s.frame
	f.Index = next
	for i := range s.queues {
		f.PerCamera[i] = nil
		if q := &s.queues[i]; q.n > 0 && q.at(0).frame == next {
			f.PerCamera[i] = q.lend(&s.lent[i])
		}
	}
	f.Objects = s.objects.take(next)
	s.last = s.clk.Now()
	return f
}

// watchdog turns a producer that went quiet into a typed error: it
// wakes periodically on the injected clock and, when a Next call has
// been waiting past the stall deadline with no assembly progress and
// the stream has not legitimately ended, fails the source.
func (s *IngestSource) watchdog() {
	interval := s.stall / 4
	if interval <= 0 {
		interval = time.Millisecond
	}
	for {
		s.clk.Sleep(interval)
		s.mu.Lock()
		if s.closed || s.stallErr != nil {
			s.mu.Unlock()
			return
		}
		if s.waiting > 0 {
			if idle := s.clk.Now().Sub(s.last); idle >= s.stall {
				s.stallErr = &StallError{Idle: idle}
				s.cond.Broadcast()
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
	}
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
			if s.closed {
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

func (s *IngestSource) serveConn(conn net.Conn) {
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
		if err != nil {
			return
		}
		if err := s.Offer(p); err != nil {
			return
		}
	}
}

// Close ends the stream: the listener and open connections shut down,
// later Offers error, and Next drains what is queued before reporting
// io.EOF. Idempotent.
func (s *IngestSource) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
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
// lists in the scene wire schema (exact float64 round-trip). wirePart is
// the definition of the message; EncodeFramePart writes exactly what
// encoding/json would make of it, and a message in exactly those bytes
// is scanned by hand, any other spelling decoded through wirePart
// (docs/STREAMING.md §6).
type wirePart struct {
	Cam     int             `json:"cam"`
	Frame   int             `json:"frame"`
	Obs     json.RawMessage `json:"obs,omitempty"`
	Objects json.RawMessage `json:"objects,omitempty"`
	EOS     bool            `json:"eos,omitempty"`
}

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
// part the caller owns, its lists allocated at their exact size.
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
}

// next reads the next message. The part is lent: its lists are valid
// until the next call, and a warm decoder allocates nothing for a
// canonical part no larger than the largest it has read.
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
	p, err := d.parse(d.body)
	if cap(d.body) > bodyStep {
		// Neither the buffer nor the lists of a message that large are
		// kept for the rest of the stream.
		d.body, d.obs, d.objs = nil, nil, nil
	}
	return p, err
}

// parse decodes one message body, retaining none of its bytes: a
// canonical body's lists land on the decoder's storage, any other body's
// are allocated.
func (d *partDecoder) parse(body []byte) (FramePart, error) {
	if p, ok := d.scan(body); ok {
		if len(p.Obs) > 0 {
			d.obs = p.Obs
		}
		if len(p.Objects) > 0 {
			d.objs = p.Objects
		}
		return p, nil
	}
	var wp wirePart
	if err := json.Unmarshal(body, &wp); err != nil {
		return FramePart{}, fmt.Errorf("pipeline: decode frame part: %w", err)
	}
	p := FramePart{Cam: wp.Cam, Frame: wp.Frame, EOS: wp.EOS}
	var err error
	if wp.Obs != nil {
		if p.Obs, err = scene.UnmarshalObservations(wp.Obs); err != nil {
			return FramePart{}, err
		}
	}
	if wp.Objects != nil {
		if p.Objects, err = scene.UnmarshalObjects(wp.Objects); err != nil {
			return FramePart{}, err
		}
	}
	return p, nil
}

// scan reads a body spelled exactly as EncodeFramePart spells it, its
// lists into the decoder's storage; ok is false for every other body,
// valid JSON or not.
func (d *partDecoder) scan(b []byte) (p FramePart, ok bool) {
	if b, ok = cut(b, `{"cam":`); !ok {
		return p, false
	}
	if p.Cam, b, ok = scene.ScanInt(b); !ok {
		return p, false
	}
	if b, ok = cut(b, `,"frame":`); !ok {
		return p, false
	}
	if p.Frame, b, ok = scene.ScanInt(b); !ok {
		return p, false
	}
	if rest, found := cut(b, `,"obs":`); found {
		if p.Obs, b, ok = scene.ScanObservations(d.obs, rest); !ok {
			return p, false
		}
	}
	if rest, found := cut(b, `,"objects":`); found {
		if p.Objects, b, ok = scene.ScanObjects(d.objs, rest); !ok {
			return p, false
		}
	}
	b, p.EOS = cut(b, `,"eos":true`)
	return p, string(b) == "}"
}

// cut drops lit from the front of b, if b starts with it.
func cut(b []byte, lit string) ([]byte, bool) {
	if len(b) < len(lit) || string(b[:len(lit)]) != lit {
		return b, false
	}
	return b[len(lit):], true
}
