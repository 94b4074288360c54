package cluster

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/assoc"
	"mvs/internal/central"
	"mvs/internal/core"
	"mvs/internal/geom"
	"mvs/internal/gpu"
	"mvs/internal/metrics"
	"mvs/internal/profile"
)

// machine is the scheduler's round barrier with the I/O taken out. It
// takes one event at a time — register, report, touch, leave, tick —
// each stamped with the time it happened, and answers with the messages
// to send, the records to emit, and when it next needs a tick. It has no
// lock and no clock, and starts no goroutine beyond central.Solve's
// association fan-out (WithWorkers): the Scheduler shell serializes the
// events, stamps them, and carries out the actions.
//
// All camera indices are local roster positions; a shard-scoped machine
// translates to global indices only in what it hands out (glob), and the
// shell translates the cameras it addresses.
type machine struct {
	// Settings, fixed once the Options have run.
	config
	model  *assoc.Model
	cams   []core.CameraSpec
	minIoU float64
	// shard scopes the machine to one shard of a sharded scheduler (nil
	// for an unsharded one, whose local and global indices agree).
	shard *shardCtx

	// joined[cam] is set once camera cam has registered, connected while
	// it has a connection, and lastSeen is its latest message — or the
	// machine's start, for a camera that never registered.
	joined, connected []bool
	lastSeen          []time.Time
	// rounds are the pending rounds, ascending by frame, every one above
	// lastDone: the highest frame taken for scheduling (-1 before the
	// first), at or below which a report is stale.
	rounds   []*round
	lastDone int
	// seq and roundSeq number the emitted snapshots and round records.
	seq, roundSeq int
	// Data-plane fault accounting, only active with a lease: lastAssigned
	// holds each camera's assignment count from the previous round, so a
	// camera declared dead is charged for the objects it orphaned;
	// outageRounds and reassignments are the cumulative Snapshot counters.
	lastAssigned  []int
	outageRounds  int
	reassignments int
	// adaptCtrl is the degradation controller (WithAdapt); lastAdaptDrift
	// is the reassignment count at its previous sample.
	adaptCtrl      *adapt.Controller
	lastAdaptDrift int
	work           roundWork
}

// round is one pending key-frame round.
type round struct {
	frame int
	// reports[cam] is camera cam's upload, nil until it arrives; n counts
	// the uploads.
	reports []*Detections
	n       int
	// deadline is when the round timeout schedules the round with what
	// has arrived (zero without WithRoundTimeout).
	deadline time.Time
}

// out is one message for a camera: an Assignment, or an error text.
type out struct {
	cam        int
	assignment *Assignment
	err        string
}

// emission is one completed round's records, RoundLatency unset.
type emission struct {
	snap  metrics.Snapshot
	round metrics.Round
}

// actions is what one event asks of the shell: messages to send and
// records to emit, in order, and when to tick the machine next (zero:
// nothing pending can change without an event).
type actions struct {
	sends  []out
	emits  []emission
	wakeAt time.Time
}

// staleRound is the error text a report for an already scheduled round is
// answered with.
const staleRound = "stale round"

// newMachine builds the round machine over a camera roster, to be
// configured and started by the shell.
func newMachine(model *assoc.Model, profiles []*profile.Profile, minIoU float64) (*machine, error) {
	if model == nil {
		return nil, errors.New("cluster: nil association model")
	}
	if len(profiles) != model.NumCameras() {
		return nil, fmt.Errorf("cluster: %d profiles for model with %d cameras",
			len(profiles), model.NumCameras())
	}
	cams := make([]core.CameraSpec, len(profiles))
	for i, p := range profiles {
		if p == nil {
			return nil, fmt.Errorf("cluster: nil profile for camera %d", i)
		}
		cams[i] = core.CameraSpec{Index: i, Profile: p}
	}
	if minIoU <= 0 {
		minIoU = assoc.MinIoU
	}
	return &machine{model: model, cams: cams, minIoU: minIoU}, nil
}

// start readies a configured machine whose clock starts at t: the lease
// of a camera that never registers counts from t.
func (m *machine) start(t time.Time) {
	n := len(m.cams)
	m.joined, m.connected = make([]bool, n), make([]bool, n)
	m.lastSeen = make([]time.Time, n)
	for cam := range m.lastSeen {
		m.lastSeen[cam] = t
	}
	m.lastDone = -1
	m.lastAssigned = make([]int, n)
	if m.adaptPol.Enabled() {
		m.adaptCtrl = adapt.NewController(m.adaptPol)
	}
}

// register connects camera cam (again, after a reconnect).
func (m *machine) register(cam int, t time.Time) actions {
	m.joined[cam], m.connected[cam], m.lastSeen[cam] = true, true, t
	return m.settle(t, nil)
}

// touch refreshes camera cam's lease (a heartbeat ping).
func (m *machine) touch(cam int, t time.Time) actions {
	m.lastSeen[cam] = t
	return m.settle(t, nil)
}

// leave disconnects camera cam: from now on no round waits for it.
func (m *machine) leave(cam int, t time.Time) actions {
	m.connected[cam] = false
	return m.settle(t, nil)
}

// tick lets time pass to t.
func (m *machine) tick(t time.Time) actions { return m.settle(t, nil) }

// report records a camera's key-frame upload. A report for a frame at or
// before the last scheduled round can join nothing — its round has been
// scheduled, or superseded — and is answered stale in the same step
// rather than opening a round nobody else will report to.
func (m *machine) report(det *Detections, t time.Time) actions {
	cam := det.Camera
	m.lastSeen[cam] = t
	if det.Frame <= m.lastDone {
		return m.settle(t, []out{{cam: cam,
			err: fmt.Sprintf("%s: frame %d, round %d already scheduled", staleRound, det.Frame, m.lastDone)}})
	}
	i, found := slices.BinarySearchFunc(m.rounds, det.Frame, func(r *round, f int) int { return r.frame - f })
	if !found {
		r := &round{frame: det.Frame, reports: make([]*Detections, len(m.cams))}
		if m.roundTimeout > 0 {
			r.deadline = t.Add(m.roundTimeout)
		}
		m.rounds = slices.Insert(m.rounds, i, r)
	}
	r := m.rounds[i]
	if r.reports[cam] == nil {
		r.n++
	}
	r.reports[cam] = det
	return m.settle(t, nil)
}

// expired reports whether camera cam's lease has run out at t: the one
// liveness rule, read by the barrier and the dead list alike.
func (m *machine) expired(cam int, t time.Time) bool {
	return m.lease > 0 && t.Sub(m.lastSeen[cam]) >= m.lease
}

// blocks reports whether a round missing camera cam's report waits for
// it at t: a camera that is connected, or has never registered, until
// its lease runs out. One that registered and left is not waited for.
func (m *machine) blocks(cam int, t time.Time) bool {
	return (m.connected[cam] || !m.joined[cam]) && !m.expired(cam, t)
}

// due reports whether a pending round is to be scheduled at t: its round
// timeout has run out, or no roster camera it lacks still blocks it.
func (m *machine) due(r *round, t time.Time) bool {
	if !r.deadline.IsZero() && !t.Before(r.deadline) {
		m.logger.Printf("cluster: round %d timed out with %d/%d reports, scheduling partial round",
			r.frame, r.n, len(m.cams))
		return true
	}
	for cam, rep := range r.reports {
		if rep == nil && m.blocks(cam, t) {
			return false
		}
	}
	return true
}

// settle schedules, in frame order, every pending round that is due at t;
// taking a round drops every pending round before it, whose reporters
// have moved on. It then computes the earliest time a pending round can
// become due with no event arriving: a round timeout, or the lease of a
// camera still blocking a round.
func (m *machine) settle(t time.Time, sends []out) actions {
	acts := actions{sends: sends}
	for i := 0; i < len(m.rounds); i++ {
		r := m.rounds[i]
		if !m.due(r, t) {
			continue
		}
		for _, old := range m.rounds[:i] {
			m.logger.Printf("cluster: dropping stale round %d (superseded by completed round %d)", old.frame, r.frame)
		}
		m.rounds = slices.Delete(m.rounds, 0, i+1)
		i = -1
		m.lastDone = r.frame
		m.complete(r, t, &acts)
	}
	wake := func(at time.Time) {
		if acts.wakeAt.IsZero() || at.Before(acts.wakeAt) {
			acts.wakeAt = at
		}
	}
	for _, r := range m.rounds {
		if !r.deadline.IsZero() {
			wake(r.deadline)
		}
		for cam, rep := range r.reports {
			if rep == nil && m.lease > 0 && m.blocks(cam, t) {
				wake(m.lastSeen[cam].Add(m.lease))
			}
		}
	}
	return acts
}

// complete schedules a round taken at t: it runs the central stage,
// declares the dead, steps the fault counters and the adapt controller,
// and appends the round's records and one reply per connected camera.
func (m *machine) complete(r *round, t time.Time, acts *actions) {
	replies, snap, prio, err := m.schedule(r)
	if err != nil {
		m.logger.Printf("cluster: scheduling frame %d: %v", r.frame, err)
		for cam, ok := range m.connected {
			if ok {
				acts.sends = append(acts.sends, out{cam: cam, err: fmt.Sprintf("scheduling failed: %v", err)})
			}
		}
		return
	}
	// The dead are the cameras without a report that have left or run
	// out of lease — dead per the liveness model, not merely slow — each
	// charged one outage plus the assignments it held in the previous
	// round (the objects the central stage just reassigned away from it).
	// Only with a lease, keeping the wire format and snapshots unchanged
	// without one.
	var dead []int
	if m.lease > 0 {
		for cam, rep := range r.reports {
			if rep == nil && (!m.connected[cam] || m.expired(cam, t)) {
				dead = append(dead, cam)
				m.reassignments += m.lastAssigned[cam]
			}
		}
		m.outageRounds += len(dead)
		for i, cs := range snap.Cameras {
			m.lastAssigned[i] = cs.Assignments
		}
		snap.OutageFrames, snap.Reassignments = m.outageRounds, m.reassignments
	}
	if len(dead) > 0 {
		// The wire (and the shared liveness mask every node installs) is
		// global.
		deadGlobal := make([]int, len(dead))
		for i, c := range dead {
			deadGlobal[i] = m.glob(c)
		}
		m.logger.Printf("cluster: round %d declares cameras %v dead (lease expired or disconnected)", r.frame, deadGlobal)
		for _, reply := range replies {
			reply.Dead = deadGlobal
		}
	}
	if m.adaptCtrl != nil {
		// A round is a horizon boundary: observe its scheduled latency,
		// dead count and reassignment drift, tick, and carry the rung to
		// every node.
		drift := m.reassignments - m.lastAdaptDrift
		m.lastAdaptDrift = m.reassignments
		m.adaptCtrl.Observe(adapt.Sample{Latency: snap.FrameLatency, DeadCameras: len(dead), Drift: drift})
		level, _ := m.adaptCtrl.Tick()
		snap.AdaptLevel = level
		snap.AdaptTransitions = m.adaptCtrl.Transitions()
		snap.SLOViolations = m.adaptCtrl.SLOViolations()
		for _, reply := range replies {
			reply.AdaptLevel = level
		}
	}
	snap.Seq = m.seq
	m.seq++
	acts.emits = append(acts.emits, emission{snap: snap, round: m.roundRecord(snap, prio)})
	for cam, ok := range m.connected {
		if ok {
			acts.sends = append(acts.sends, out{cam: cam, assignment: replies[cam]})
		}
	}
}

// roundRecord derives a round's decision record from its snapshot and
// global priority order. Assigned is indexed by global camera index and
// sized to the roster's extent (the fleet for a standalone scheduler; a
// shard leaves foreign cameras at zero).
func (m *machine) roundRecord(snap metrics.Snapshot, prio []int) metrics.Round {
	rd := metrics.Round{
		Source:        metrics.SourceScheduler,
		Label:         snap.Label,
		Seq:           m.roundSeq,
		Frame:         snap.Frame,
		Objects:       snap.Objects,
		Priority:      prio,
		Partial:       snap.Partial,
		Reassignments: snap.Reassignments,
	}
	m.roundSeq++
	extent := 0
	for _, cs := range snap.Cameras {
		extent = max(extent, cs.Camera+1)
	}
	rd.Assigned = make([]int, extent)
	for _, cs := range snap.Cameras {
		rd.Assigned[cs.Camera] = cs.Assignments
	}
	return rd
}

// glob translates a local camera index to its global roster index (the
// identity for an unsharded machine).
func (m *machine) glob(local int) int {
	if m.shard == nil {
		return local
	}
	return m.shard.roster[local]
}

// local translates a global camera index of the machine's roster to the
// local one.
func (m *machine) local(global int) int {
	if m.shard == nil {
		return global
	}
	return slices.Index(m.shard.roster, global)
}

// schedule runs one central-stage round (central.Solve, the kernel the
// in-process engine runs too) over the round's reports and turns its
// per-track decisions into one Assignment per roster camera. It also
// assembles the round's snapshot (sans Seq and RoundLatency): the
// scheduled per-camera latencies, the batches each camera's assignment
// launches, and assignment counts.
func (m *machine) schedule(r *round) ([]*Assignment, metrics.Snapshot, []int, error) {
	solved, views := &m.work.round, &m.work.round.Views
	total := 0
	for _, rep := range r.reports {
		if rep != nil {
			total += len(rep.Tracks)
		}
	}
	views.Reset(len(m.cams), total)
	for cam, rep := range r.reports {
		if rep == nil {
			continue // schedule without the camera's view
		}
		for _, t := range rep.Tracks {
			views.Add(cam, geom.Rect{MinX: t.Box[0], MinY: t.Box[1], MaxX: t.Box[2], MaxY: t.Box[3]},
				central.Track{ID: t.TrackID, Size: t.Size})
		}
	}
	if err := central.Solve(central.Params{
		Model: m.model, Cameras: m.cams, MinIoU: m.minIoU, Workers: m.workers,
	}, solved); err != nil {
		return nil, metrics.Snapshot{}, nil, err
	}
	sol := solved.Solution
	snap, err := m.roundSnapshot(r.frame, &solved.Objects, sol, &m.work)
	if err != nil {
		return nil, metrics.Snapshot{}, nil, err
	}
	// A round missing at least one roster camera's view (timeout, lease
	// expiry, disconnect, or a camera that never joined) is partial.
	snap.Partial = r.n < len(m.cams)

	// The wire speaks global camera indices; translate the priority
	// order (the identity for a standalone scheduler) and stamp the
	// shard roster so nodes build a scoped ownership policy.
	prio := make([]int, len(sol.Priority))
	for k, c := range sol.Priority {
		prio[k] = m.glob(c)
	}
	var roster []int
	if m.shard != nil {
		roster = m.shard.roster
	}

	// Cross-shard hand-off: a boundary object also claimed by a
	// lower-ID shard belongs there — every local member becomes a
	// shadow of the foreign owner instead of being kept.
	demoted := m.consultHandoff(r.frame, solved.Groups, views.Boxes)

	replies := make([]*Assignment, len(m.cams))
	for cam := range replies {
		replies[cam] = &Assignment{Frame: r.frame, Priority: prio, Roster: roster}
	}
	solved.Walk(func(mb central.Member) {
		reply := replies[mb.Cam]
		id := views.Tracks[mb.Cam][mb.Index].ID
		if owner, isDemoted := demoted[mb.Object]; isDemoted {
			reply.Shadows = append(reply.Shadows, ShadowOrder{TrackID: id, AssignedCamera: owner})
		} else if mb.Kept {
			reply.Keep = append(reply.Keep, id)
		} else {
			reply.Shadows = append(reply.Shadows, ShadowOrder{TrackID: id, AssignedCamera: m.glob(mb.Owner)})
		}
	})
	m.publishHandoff(r.frame, solved.Groups, views.Boxes, sol, demoted)
	return replies, snap, prio, nil
}

// roundWork is the machine's one round workspace: the round kernel's and
// the snapshot's per-camera tables, reused every round.
type roundWork struct {
	round central.Round
	// tasks[cam] is the inspections the round assigns to cam, and
	// execs[cam] the executor that prices them for the snapshot.
	tasks [][]gpu.Task
	execs []*gpu.Executor
}

// roundSnapshot derives the observability record of a scheduled round:
// per camera, the solution's scheduled latency, the number of objects
// assigned, and the batches, images and batch occupancy of its assigned
// inspections, priced by gpu.Executor.Price as a camera prices a frame.
func (m *machine) roundSnapshot(frame int, in *core.Instance, sol *core.Solution, work *roundWork) (metrics.Snapshot, error) {
	snap := metrics.Snapshot{
		Source:       metrics.SourceScheduler,
		Frame:        frame,
		Objects:      in.Len(),
		FrameLatency: sol.System(),
		Cameras:      make([]metrics.CameraSnapshot, len(m.cams)),
	}
	if m.shard != nil {
		// Shard-scoped rounds share one sink; the label demultiplexes
		// them ("shard0", "shard1", ...), and camera indices below are
		// globalized so fleet-wide dashboards line up.
		snap.Label = m.shard.label
	}
	if len(work.execs) != len(m.cams) {
		work.execs = make([]*gpu.Executor, len(m.cams))
		for i, c := range m.cams {
			ex, err := gpu.NewExecutor(c.Profile)
			if err != nil {
				return metrics.Snapshot{}, fmt.Errorf("cluster: camera %d: %w", m.glob(i), err)
			}
			work.execs[i] = ex
		}
		work.tasks = make([][]gpu.Task, len(m.cams))
	}
	for i := range work.tasks {
		work.tasks[i] = work.tasks[i][:0]
	}
	for j, cam := range sol.Assign {
		size := in.Sizes(j)[slices.Index(in.Cameras(j), int32(cam))]
		work.tasks[cam] = append(work.tasks[cam], gpu.Task{ObjectID: j, Size: int(size)})
	}
	for i, tasks := range work.tasks {
		cost, err := work.execs[i].Price(false, tasks)
		if err != nil {
			return metrics.Snapshot{}, fmt.Errorf("cluster: camera %d: %w", m.glob(i), err)
		}
		snap.Cameras[i] = metrics.CameraSnapshot{
			Camera: m.glob(i), Assignments: len(tasks), Latency: sol.Latencies[i],
			Batches: cost.Batches, Images: cost.Images, BatchOccupancy: cost.Occupancy,
		}
	}
	return snap, nil
}
