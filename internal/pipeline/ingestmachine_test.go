package pipeline

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"mvs/internal/faults"
	"mvs/internal/scene"
)

// ingestEvent is one input of a generated ingest schedule: a part
// delivered to offer, the consumer asking for a frame (next), or the
// consumer closing the source.
type ingestEvent struct {
	at          time.Time
	seq         int
	part        FramePart
	next, close bool
}

// ingestPlan is one generated schedule and the source configuration it
// runs against.
type ingestPlan struct {
	cams   int
	cfg    IngestConfig
	events []ingestEvent
	// drain asks, after the last event, for frames until next stops
	// handing them over.
	drain bool
	// tags maps a data part's tag — the ObjectID of its one observation —
	// to the part.
	tags map[int]FramePart
}

var ingestEpoch = time.Unix(1_700_000_000, 0)

// ingestSchedule draws the seeded arrival schedule of a fleet of one to
// four cameras, each sending one part per frame period, under the
// faults.Config vocabulary: every part arrives Delay plus up to Jitter
// after it is sent, so parts come late and reordered; a write killed
// with DropRate truncates its part, which never arrives, and the
// producer comes back some frames later; a read reset with ResetRate
// makes the producer re-send its last part, a duplicate arriving later
// still; and WriteCut ends a camera's stream at that write, without EOS.
// A camera may also send EOS mid-stream and carry on sending. The
// consumer asks for a frame about once a period, sometimes falling
// several periods behind, may close the source mid-stream, and otherwise
// closes it after the last arrival when a camera never sent EOS. Every
// part carries one observation whose ObjectID tags it; camera 0's parts
// carry the frame's objects.
func ingestSchedule(seed int64) ingestPlan {
	const period = 10 * time.Millisecond
	rng := rand.New(rand.NewSource(seed))
	spec := fmt.Sprintf("seed=%d,drop=%.2f,reset=%.2f,delay=%dms,jitter=%dms", seed,
		0.15*rng.Float64(), 0.15*rng.Float64(), rng.Intn(20), rng.Intn(80))
	if rng.Intn(4) == 0 {
		spec += fmt.Sprintf(",cut=%d", 3+rng.Intn(30))
	}
	fc, err := faults.ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	p := ingestPlan{
		cams:  1 + rng.Intn(4),
		cfg:   IngestConfig{Queue: 1 + rng.Intn(6), Policy: ShedPolicy(seed % 3)},
		drain: rng.Intn(5) != 0,
		tags:  map[int]FramePart{},
	}
	if rng.Intn(3) == 0 {
		p.cfg.Stall = time.Duration(2+rng.Intn(8)) * period
	}
	frames := 10 + rng.Intn(30)
	var seq int
	push := func(ev ingestEvent) {
		seq++
		ev.seq = seq
		p.events = append(p.events, ev)
	}
	deliver := func(sent time.Time, part FramePart) {
		d := fc.Delay
		if fc.Jitter > 0 {
			d += time.Duration(rng.Int63n(int64(fc.Jitter)))
		}
		if !part.EOS {
			part.Obs = []scene.Observation{{ObjectID: seq + 1}}
			p.tags[seq+1] = part
		}
		push(ingestEvent{at: sent.Add(d), part: part})
	}
	for cam := 0; cam < p.cams; cam++ {
		eosAt := frames
		if rng.Intn(8) == 0 {
			eosAt = rng.Intn(frames)
		}
		writes, cut := 0, false
		var sent time.Time
		for fi := 0; fi < frames; fi++ {
			sent = ingestEpoch.Add(time.Duration(fi)*period + time.Duration(rng.Int63n(int64(period/2))))
			if fi == eosAt {
				deliver(sent, FramePart{Cam: cam, EOS: true})
			}
			if writes++; fc.WriteCut > 0 && writes == fc.WriteCut {
				cut = true
				break
			}
			if rng.Float64() < fc.DropRate {
				fi += rng.Intn(4) // truncated, and an outage of up to three frames
				continue
			}
			part := FramePart{Cam: cam, Frame: fi}
			if cam == 0 {
				part.Objects = []scene.ObjectState{{ID: fi}}
			}
			deliver(sent, part)
			if rng.Float64() < fc.ResetRate {
				deliver(sent.Add(time.Duration(1+rng.Intn(4))*period), part)
			}
		}
		if !cut && eosAt == frames {
			deliver(sent, FramePart{Cam: cam, EOS: true})
		}
	}
	end := ingestEpoch
	for _, ev := range p.events {
		if ev.at.After(end) {
			end = ev.at
		}
	}
	closeAt := time.Time{}
	if rng.Intn(5) == 0 {
		closeAt = ingestEpoch.Add(time.Duration(rng.Int63n(int64(end.Sub(ingestEpoch) + 1))))
	}
	for t := ingestEpoch.Add(period / 2); !t.After(end); t = t.Add(period) {
		if rng.Intn(4) == 0 {
			t = t.Add(time.Duration(1+rng.Intn(5)) * period) // the consumer falls behind
		}
		push(ingestEvent{at: t, next: true})
	}
	if closeAt.IsZero() {
		closeAt = end.Add(time.Nanosecond)
	}
	push(ingestEvent{at: closeAt, close: true})
	slices.SortFunc(p.events, func(a, b ingestEvent) int {
		if c := a.at.Compare(b.at); c != 0 {
			return c
		}
		return a.seq - b.seq
	})
	return p
}

// partState is where an offered part ended up.
type partState int

const (
	partRejected partState = iota + 1 // shed at the door
	partQueued
	partEvicted // shed from the queue by a later part
	partHanded  // handed over in a frame
)

// ingestSpec is the admission and assembly rules as docs/STREAMING.md §6
// states them, on plain lists of queued frame indices.
type ingestSpec struct {
	queue         int
	policy        ShedPolicy
	queues        [][]int
	last          []int // each camera's high-water mark, once admitted is set
	admitted, eos []bool
	closed        bool
}

func newIngestSpec(cams int, cfg IngestConfig) *ingestSpec {
	return &ingestSpec{
		queue: cfg.Queue, policy: cfg.Policy,
		queues: make([][]int, cams), last: make([]int, cams),
		admitted: make([]bool, cams), eos: make([]bool, cams),
	}
}

// offer applies a data part or an EOS and reports whether a data part is
// admitted.
func (s *ingestSpec) offer(p FramePart) bool {
	c := p.Cam
	if p.EOS {
		s.eos[c] = true
		return false
	}
	if s.eos[c] || s.admitted[c] && p.Frame <= s.last[c] {
		return false
	}
	q := s.queues[c]
	for s.policy == ShedStale && len(q) > 0 && q[0] < p.Frame-2*s.queue {
		q = q[1:]
	}
	if len(q) >= s.queue {
		if s.policy == ShedFreshest {
			q = q[:0]
		} else {
			q = q[1:]
		}
	}
	s.queues[c] = append(q, p.Frame)
	s.last[c], s.admitted[c] = p.Frame, true
	return true
}

// ready reports whether every camera has a part queued, sent EOS, or the
// source is closed.
func (s *ingestSpec) ready() bool {
	for c, q := range s.queues {
		if len(q) == 0 && !s.eos[c] && !s.closed {
			return false
		}
	}
	return true
}

// take pops the lowest queued frame from every camera that holds it, and
// reports it (false when nothing is queued).
func (s *ingestSpec) take() (int, bool) {
	fi, found := 0, false
	for _, q := range s.queues {
		if len(q) > 0 && (!found || q[0] < fi) {
			fi, found = q[0], true
		}
	}
	for c, q := range s.queues {
		if len(q) > 0 && q[0] == fi {
			s.queues[c] = q[1:]
		}
	}
	return fi, found
}

// ingestLaw replays a plan through a machine and holds every step to the
// ingest laws and to the spec. When src is set, the same events go
// through that shell on one goroutine — Next only when the machine handed
// over a frame or io.EOF, so it never blocks — and every frame and
// counter reading must match the machine's.
type ingestLaw struct {
	t     *testing.T
	seed  int64
	p     ingestPlan
	m     ingestMachine
	src   *IngestSource
	spec  *ingestSpec
	state map[int]partState
	// last is the last frame handed over, lastAt its assembly time (the
	// start before the first).
	last      int
	handedAny bool
	lastAt    time.Time
	stallErr  error
	ringCap   int
	rejected  int
	evicted   int
	offered   int
	frames    int
}

func newIngestLaw(t *testing.T, seed int64, p ingestPlan, src *IngestSource) *ingestLaw {
	return &ingestLaw{
		t: t, seed: seed, p: p, src: src,
		m:       newIngestMachine(p.cams, p.cfg, ingestEpoch),
		spec:    newIngestSpec(p.cams, p.cfg),
		state:   map[int]partState{},
		lastAt:  ingestEpoch,
		ringCap: max(4, 1<<bits.Len(uint(max(p.cfg.Queue, 1)-1))),
	}
}

func (l *ingestLaw) fatalf(format string, args ...any) {
	l.t.Helper()
	l.t.Fatalf("schedule %d (%d cameras, %+v): "+format, append([]any{l.seed, l.p.cams, l.p.cfg}, args...)...)
}

// queued returns the tags in the rings, after checking each ring's size
// bound, that each ring holds the frames the spec queues, and that each
// slot holds the part its tag names.
func (l *ingestLaw) queued() map[int]bool {
	tags := map[int]bool{}
	for cam := range l.m.queues {
		q := &l.m.queues[cam]
		if len(q.ring) > l.ringCap {
			l.fatalf("camera %d's ring has %d slots, want at most %d (queue %d)", cam, len(q.ring), l.ringCap, l.p.cfg.Queue)
		}
		var frames []int
		for i := 0; i < q.n; i++ {
			slot := q.at(i)
			tag := slot.obs.list[0].ObjectID
			if part := l.p.tags[tag]; part.Cam != cam || part.Frame != slot.frame {
				l.fatalf("camera %d's slot of frame %d holds the part of camera %d frame %d", cam, slot.frame, part.Cam, part.Frame)
			}
			tags[tag] = true
			frames = append(frames, slot.frame)
		}
		if want := l.spec.queues[cam]; len(frames)+len(want) > 0 && !slices.Equal(frames, want) {
			l.fatalf("camera %d queues frames %v, the spec %v", cam, frames, want)
		}
	}
	return tags
}

func (l *ingestLaw) offer(part FramePart) {
	before, c := l.queued(), l.m.counters()
	readyBefore := l.spec.ready()
	wake, err := l.m.offer(part)
	if l.src != nil {
		if serr := l.src.Offer(part); (serr == nil) != (err == nil) {
			l.fatalf("the shell's Offer returned %v, the machine's %v", serr, err)
		}
	}
	if l.m.closed {
		if err == nil || l.m.counters() != c {
			l.fatalf("an offer after close returned %v and moved the counters", err)
		}
		return
	}
	if err != nil {
		l.fatalf("%v", err)
	}
	admitted := l.spec.offer(part)
	if wake != (!readyBefore && l.spec.ready()) {
		l.fatalf("offer reported wake %v, ready before %v, after %v", wake, readyBefore, l.spec.ready())
	}
	after := l.queued()
	shed := 0
	if !part.EOS {
		tag := part.Obs[0].ObjectID
		l.offered++
		want := 0
		if admitted {
			want = 1
		}
		if got := l.m.ingested - c.Ingested; got != want {
			l.fatalf("part %d: Ingested moved by %d, the spec admits it: %v", tag, got, admitted)
		}
		if !admitted {
			l.state[tag] = partRejected
			l.rejected++
			shed++
		} else {
			if !after[tag] {
				l.fatalf("admitted part %d is not queued", tag)
			}
			l.state[tag] = partQueued
		}
	}
	for tag := range before {
		if !after[tag] {
			l.state[tag] = partEvicted
			l.evicted++
			shed++
		}
	}
	if got := l.m.shed - c.Shed; got != shed {
		l.fatalf("an offer shed %d parts by the counter, %d by the rings", got, shed)
	}
}

func (l *ingestLaw) next(now time.Time) (more bool) {
	before := l.queued()
	ready := l.spec.ready()
	f, wakeAt, err := l.m.next(now)
	var stalled *StallError
	switch {
	case errors.As(err, &stalled):
		deadline := l.lastAt.Add(l.p.cfg.Stall)
		if l.stallErr == nil && (l.p.cfg.Stall <= 0 || now.Before(deadline) || stalled.Idle != now.Sub(l.lastAt)) {
			l.fatalf("stalled at %v with idle %v; last assembly at %v, Stall %v", now.Sub(ingestEpoch), stalled.Idle, l.lastAt.Sub(ingestEpoch), l.p.cfg.Stall)
		}
		if l.stallErr != nil && err != l.stallErr {
			l.fatalf("the stall error changed from %v to %v", l.stallErr, err)
		}
		l.stallErr = err
		return false
	case l.stallErr != nil:
		l.fatalf("after a stall next returned %v, %v", f, err)
	case err == io.EOF:
		if len(before) != 0 || !ready {
			l.fatalf("io.EOF with %d parts queued", len(before))
		}
		if l.src != nil {
			if _, serr := l.src.Next(); serr != io.EOF {
				l.fatalf("the shell's Next returned %v, the machine's io.EOF", serr)
			}
		}
		return false
	case err != nil:
		l.fatalf("%v", err)
	case f == nil:
		want := time.Time{}
		if l.p.cfg.Stall > 0 {
			want = l.lastAt.Add(l.p.cfg.Stall)
		}
		if ready || !wakeAt.Equal(want) || (!want.IsZero() && !now.Before(want)) {
			l.fatalf("next waited at %v until %v (ready %v); want a wait until %v", now.Sub(ingestEpoch), wakeAt.Sub(ingestEpoch), ready, want.Sub(ingestEpoch))
		}
		return false
	}
	if want, ok := l.spec.take(); !ready || !ok || f.Index != want {
		l.fatalf("frame %d handed over; the spec is ready %v and takes frame %d (%v)", f.Index, ready, want, ok)
	}
	if l.handedAny && f.Index <= l.last {
		l.fatalf("frame %d handed over after frame %d", f.Index, l.last)
	}
	l.last, l.handedAny, l.lastAt = f.Index, true, now
	l.frames++
	inFrame := map[int]bool{}
	for cam, obs := range f.PerCamera {
		if obs == nil {
			continue
		}
		tag := obs[0].ObjectID
		if part := l.p.tags[tag]; len(obs) != 1 || !before[tag] || part.Cam != cam || part.Frame != f.Index {
			l.fatalf("frame %d camera %d holds %v, not a queued part of that camera and frame", f.Index, cam, obs)
		}
		inFrame[tag] = true
		l.state[tag] = partHanded
	}
	after := l.queued()
	for tag := range before {
		if !after[tag] && !inFrame[tag] {
			l.fatalf("part %d left the queue without being handed over in frame %d", tag, f.Index)
		}
	}
	if f.Objects != nil && !reflect.DeepEqual(f.Objects, []scene.ObjectState{{ID: f.Index}}) {
		l.fatalf("frame %d carries the objects %v", f.Index, f.Objects)
	}
	if l.src != nil {
		got, serr := l.src.Next()
		if serr != nil || got.Index != f.Index || !reflect.DeepEqual(got.PerCamera, f.PerCamera) || !reflect.DeepEqual(got.Objects, f.Objects) {
			l.fatalf("the shell handed over %+v, %v; the machine %+v", got, serr, f)
		}
	}
	return true
}

func (l *ingestLaw) run() {
	var last time.Time
	for _, ev := range l.p.events {
		switch {
		case ev.close:
			l.m.close()
			l.spec.closed = true
			if l.src != nil {
				l.src.Close()
			}
		case ev.next:
			l.next(ev.at)
		default:
			l.offer(ev.part)
		}
		last = ev.at
		if l.src != nil && l.src.Counters() != l.m.counters() {
			l.fatalf("the shell counts %+v, the machine %+v", l.src.Counters(), l.m.counters())
		}
	}
	if l.p.drain {
		for l.next(last) {
		}
	}
	queued := l.queued()
	for tag := range l.p.tags {
		st, ok := l.state[tag]
		if !ok {
			continue // never delivered before the close
		}
		if (st == partQueued) != queued[tag] {
			l.fatalf("part %d ended %v but is queued: %v", tag, st, queued[tag])
		}
	}
	c := l.m.counters()
	if c.Shed != l.rejected+l.evicted || c.Ingested != l.offered-l.rejected || c.QueueDepth != len(queued) {
		l.fatalf("counters %+v; %d offered, %d rejected, %d evicted, %d queued", c, l.offered, l.rejected, l.evicted, len(queued))
	}
}

// TestIngestMachineSeededLaws runs the machine through 500 seeded arrival
// schedules at every shed policy and holds it to the ingest laws: frames
// are handed over at most once and in strictly ascending order; every
// offered part ends exactly one of rejected at the door, evicted, handed
// over or still queued; Shed is rejected plus evicted and Ingested is
// offered minus rejected; each ring stays within Queue rounded up to a
// power of two (4 at least); an offer reports a wake-up exactly when it
// lets a waiting next return; and the stall fires exactly at its
// deadline. Fifty of the schedules without a stall deadline also run
// through the shell, which must hand over the same frames.
func TestIngestMachineSeededLaws(t *testing.T) {
	const schedules, shellRuns = 500, 50
	var frames, rejected, evicted, stalls, shells int
	policies := map[ShedPolicy]int{}
	for seed := int64(0); seed < schedules; seed++ {
		p := ingestSchedule(seed)
		var src *IngestSource
		if p.cfg.Stall == 0 && shells < shellRuns {
			var err error
			if src, err = NewIngestSource(make([]*scene.Camera, p.cams), p.cfg); err != nil {
				t.Fatal(err)
			}
			shells++
		}
		l := newIngestLaw(t, seed, p, src)
		l.run()
		if src != nil {
			src.Close()
		}
		frames += l.frames
		rejected += l.rejected
		evicted += l.evicted
		policies[p.cfg.Policy] += l.evicted
		if l.stallErr != nil {
			stalls++
		}
	}
	t.Logf("%d frames handed over, %d parts rejected, %d evicted (by policy %v), %d stalls, %d shell replays",
		frames, rejected, evicted, policies, stalls, shells)
	if shells < shellRuns || stalls == 0 || len(policies) != 3 {
		t.Fatal("the schedules did not exercise the shell, the stall and every policy")
	}
	for pol, n := range policies {
		if n == 0 {
			t.Fatalf("no part was ever evicted under %v", pol)
		}
	}
}
