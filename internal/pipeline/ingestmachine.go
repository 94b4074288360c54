package pipeline

import (
	"fmt"
	"io"
	"slices"
	"time"

	"mvs/internal/scene"
)

// ingestMachine is the live ingest with the I/O taken out. It takes one
// event at a time — a part offered, the engine asking for the next frame
// at a given time, the stream closed — and owns every decision behind
// them: admission into the per-camera rings under the shed policy, EOS,
// assembly into the lent frame, the counters, and the stall deadline. It
// has no lock, no goroutine and no clock: the start time and each
// request's time come in as arguments. IngestSource is its shell.
type ingestMachine struct {
	queueCap int
	policy   ShedPolicy
	stall    time.Duration

	queues   []partQueue
	eos      []bool
	closed   bool
	objects  objectTable
	frame    scene.FrameTruth      // the lent frame, valid until next is called again
	lent     [][]scene.Observation // per camera: storage of frame.PerCamera, kept while it is nil
	stallErr error
	last     time.Time // the last assembly, or the start: the stall reference

	ingested, shed int
}

func newIngestMachine(cams int, cfg IngestConfig, start time.Time) ingestMachine {
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	return ingestMachine{
		queueCap: cfg.Queue,
		policy:   cfg.Policy,
		stall:    cfg.Stall,
		queues:   make([]partQueue, cams),
		eos:      make([]bool, cams),
		objects:  objectTable{keep: cfg.Queue + 1},
		frame:    scene.FrameTruth{PerCamera: make([][]scene.Observation, cams)},
		lent:     make([][]scene.Observation, cams),
		last:     start,
	}
}

// offer admits one frame part, or records a camera's EOS; see
// IngestSource.Offer. It reports whether the part made next able to
// return where it could not before: a frame became assemblable, or the
// last stream ended.
func (m *ingestMachine) offer(p FramePart) (bool, error) {
	if m.closed {
		return false, fmt.Errorf("pipeline: ingest: Offer after Close")
	}
	if p.Cam < 0 || p.Cam >= len(m.queues) {
		return false, fmt.Errorf("pipeline: ingest: camera %d out of range [0,%d)", p.Cam, len(m.queues))
	}
	q := &m.queues[p.Cam]
	// next waits for every camera to be ready, so only the part that ends
	// a camera's silence can be the one that lets it return.
	silent := q.n == 0 && !m.eos[p.Cam]
	switch {
	case p.EOS:
		m.eos[p.Cam] = true
	case m.eos[p.Cam]:
		m.shed++ // a part after the camera's own EOS can never be emitted
		return false, nil
	case !m.admit(q, p.Frame):
		return false, nil
	default:
		q.push(p.Frame, p.Obs)
		m.ingested++
		if p.Objects != nil {
			m.objects.add(p.Frame, p.Objects)
		}
	}
	return silent && m.ready(), nil
}

// admit decides, on frame indices alone, whether a part of frame fi joins
// camera queue q: it sheds what the policy drops to make room, counts
// every shed part, and reports whether the part is admitted.
func (m *ingestMachine) admit(q *partQueue, fi int) bool {
	// A camera's admitted frames ascend strictly: a part at or below the
	// last one admitted — a duplicate, a reordered straggler, a re-send of
	// a frame already emitted — is shed rather than corrupting assembly
	// order.
	if q.admitted && fi <= q.last {
		m.shed++
		return false
	}
	if m.policy == ShedStale {
		cut := fi - 2*m.queueCap
		for q.n > 0 && q.at(0).frame < cut {
			q.drop()
			m.shed++
		}
	}
	if q.n >= m.queueCap {
		drop := 1
		if m.policy == ShedFreshest {
			drop = q.n
		}
		for ; drop > 0; drop-- {
			q.drop()
			m.shed++
		}
	}
	q.last, q.admitted = fi, true
	return true
}

// next is the engine asking, at now, for the next frame. Once every
// camera is ready it returns the lent frame (assembled at now), or io.EOF
// when every stream ended and the queues drained. While a camera is
// silent it returns neither, and wakeAt is the stall deadline, the last
// assembly plus Stall (zero when Stall is off); asked at or past that
// deadline it fails the source with a *StallError, which it returns from
// then on.
func (m *ingestMachine) next(now time.Time) (f *scene.FrameTruth, wakeAt time.Time, err error) {
	switch {
	case m.stallErr != nil:
		return nil, time.Time{}, m.stallErr
	case m.ready():
		if !m.anyQueued() {
			return nil, time.Time{}, io.EOF
		}
		m.last = now
		return m.assemble(), time.Time{}, nil
	case m.stall <= 0:
		return nil, time.Time{}, nil
	}
	wakeAt = m.last.Add(m.stall)
	if now.Before(wakeAt) {
		return nil, wakeAt, nil
	}
	m.stallErr = &StallError{Idle: now.Sub(m.last)}
	return nil, time.Time{}, m.stallErr
}

// close ends the stream: later offers fail, and next drains what is
// queued before reporting io.EOF.
func (m *ingestMachine) close() { m.closed = true }

// counters reads the admission counters.
func (m *ingestMachine) counters() IngestCounters {
	c := IngestCounters{Ingested: m.ingested, Shed: m.shed}
	for i := range m.queues {
		c.QueueDepth += m.queues[i].n
	}
	return c
}

// ready reports whether every camera can contribute a decision: a queued
// part, its EOS, or a closed source.
func (m *ingestMachine) ready() bool {
	for i := range m.queues {
		if m.queues[i].n == 0 && !m.eos[i] && !m.closed {
			return false
		}
	}
	return true
}

func (m *ingestMachine) anyQueued() bool {
	for i := range m.queues {
		if m.queues[i].n > 0 {
			return true
		}
	}
	return false
}

// assemble pops the lowest queued frame index into the lent frame. The
// previous frame's lists go back into the popped slots: the engine asked
// for this frame, so it reads that one no more.
func (m *ingestMachine) assemble() *scene.FrameTruth {
	next, found := 0, false
	for i := range m.queues {
		if q := &m.queues[i]; q.n > 0 && (!found || q.at(0).frame < next) {
			next, found = q.at(0).frame, true
		}
	}
	f := &m.frame
	f.Index = next
	for i := range m.queues {
		f.PerCamera[i] = nil
		if q := &m.queues[i]; q.n > 0 && q.at(0).frame == next {
			f.PerCamera[i] = q.lend(&m.lent[i])
		}
	}
	f.Objects = m.objects.take(next)
	return f
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
