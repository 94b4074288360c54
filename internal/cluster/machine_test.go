package cluster

import (
	"slices"
	"testing"
	"time"

	"mvs/internal/assoc"
	"mvs/internal/metrics"
	"mvs/internal/profile"
)

// epoch is the machine tests' start of time.
var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return epoch.Add(d) }

// newTestMachine builds the round machine a Scheduler over model would
// run, its clock started at epoch.
func newTestMachine(t *testing.T, model *assoc.Model, profiles []*profile.Profile, opts ...Option) *machine {
	t.Helper()
	s, err := NewScheduler(model, profiles, 0, opts...)
	if err != nil {
		t.Fatal(err)
	}
	s.machines[0].start(epoch)
	return s.machines[0]
}

// twoCameraMachine is newTestMachine over testModel's two cameras.
func twoCameraMachine(t *testing.T, opts ...Option) *machine {
	t.Helper()
	model, profiles := testModel(t)
	return newTestMachine(t, model, profiles, opts...)
}

func report(cam, frame int, tracks ...TrackReport) *Detections {
	return &Detections{Camera: cam, Frame: frame, Tracks: tracks}
}

// replies returns the assignments acts sends, by camera; a second one
// to the same camera fails the test.
func replies(t *testing.T, acts actions) map[int]*Assignment {
	t.Helper()
	got := map[int]*Assignment{}
	for _, o := range acts.sends {
		if o.assignment == nil {
			t.Fatalf("camera %d sent error %q", o.cam, o.err)
		}
		if got[o.cam] != nil {
			t.Fatalf("camera %d answered twice in one step", o.cam)
		}
		got[o.cam] = o.assignment
	}
	return got
}

// quiet fails the test if acts sends or emits anything.
func quiet(t *testing.T, what string, acts actions) {
	t.Helper()
	if len(acts.sends) > 0 || len(acts.emits) > 0 {
		t.Fatalf("%s: sent %+v and emitted %d records, want nothing", what, acts.sends, len(acts.emits))
	}
}

var boxA = TrackReport{TrackID: 1, Box: [4]float64{100, 100, 150, 150}, Size: 64}

func TestDisconnectUnblocksRound(t *testing.T) {
	// Camera 1 reports for frame 0, camera 0 never does and instead
	// disconnects. The round must complete with camera 1's view alone.
	m := twoCameraMachine(t)
	m.register(0, at(0))
	m.register(1, at(0))
	quiet(t, "camera 1's report", m.report(report(1, 0, TrackReport{TrackID: 5, Box: [4]float64{100, 100, 160, 150}, Size: 64}), at(time.Millisecond)))
	acts := m.leave(0, at(2*time.Millisecond))
	got := replies(t, acts)
	if len(got) != 1 || got[1] == nil || got[1].Frame != 0 || !slices.Equal(got[1].Keep, []int{5}) {
		t.Fatalf("replies after camera 0 left = %+v, want camera 1 keeping track 5 in frame 0", got)
	}
	if len(acts.emits) != 1 || !acts.emits[0].snap.Partial {
		t.Fatalf("emitted %+v, want one partial round", acts.emits)
	}
	if !acts.wakeAt.IsZero() {
		t.Fatalf("wake at %v with nothing pending", acts.wakeAt)
	}
}

func TestRoundTimeoutSchedulesPartialRound(t *testing.T) {
	// Two cameras register, one reports: with a round timeout the round
	// must complete anyway, marked Partial in its snapshot, instead of
	// waiting on the silent camera forever.
	const timeout = 200 * time.Millisecond
	m := twoCameraMachine(t, WithRoundTimeout(timeout))
	m.register(0, at(0))
	m.register(1, at(0))
	acts := m.report(report(0, 0, boxA), at(10*time.Millisecond))
	quiet(t, "the first report", acts)
	if want := at(10*time.Millisecond + timeout); !acts.wakeAt.Equal(want) {
		t.Fatalf("wake at %v, want the round's deadline %v", acts.wakeAt, want)
	}
	quiet(t, "a tick before the deadline", m.tick(acts.wakeAt.Add(-time.Nanosecond)))
	acts = m.tick(acts.wakeAt)
	got := replies(t, acts)
	if len(got) != 2 || got[0].Frame != 0 || got[1].Frame != 0 {
		t.Fatalf("replies = %+v, want both connected cameras answered for frame 0", got)
	}
	if len(acts.emits) != 1 {
		t.Fatalf("emitted %d records, want 1", len(acts.emits))
	}
	snap := acts.emits[0].snap
	if !snap.Partial || snap.Source != metrics.SourceScheduler || snap.Frame != 0 {
		t.Fatalf("snapshot %+v, want a partial scheduler round for frame 0", snap)
	}
}

func TestLeaseExpiryUnblocksBarrier(t *testing.T) {
	// With a liveness lease, a camera that has gone silent longer than
	// the lease does not block the barrier: the round completes without
	// it and no round timeout is needed.
	const lease = 100 * time.Millisecond
	m := twoCameraMachine(t, WithLease(lease))
	m.register(0, at(0))
	m.register(1, at(0))
	got := replies(t, m.report(report(0, 0, boxA), at(250*time.Millisecond)))
	if got[0] == nil || !slices.Equal(got[0].Dead, []int{1}) {
		t.Fatalf("replies = %+v, want frame 0 answered with camera 1 dead", got)
	}
}

func TestHeartbeatRefreshesLease(t *testing.T) {
	// A ping moves the camera's lease on: the round waits for it a full
	// lease after the ping, and the wake-up follows.
	const lease = 100 * time.Millisecond
	m := twoCameraMachine(t, WithLease(lease))
	m.register(0, at(0))
	m.register(1, at(0))
	quiet(t, "the ping", m.touch(1, at(80*time.Millisecond)))
	acts := m.report(report(0, 0, boxA), at(150*time.Millisecond))
	quiet(t, "a report inside the pinged lease", acts)
	if want := at(80*time.Millisecond + lease); !acts.wakeAt.Equal(want) {
		t.Fatalf("wake at %v, want the refreshed lease's end %v", acts.wakeAt, want)
	}
	if got := replies(t, m.tick(acts.wakeAt)); got[0] == nil || !slices.Equal(got[0].Dead, []int{1}) {
		t.Fatalf("replies at the lease's end = %+v, want camera 1 dead", got)
	}
}

// TestNeverRegisteredCameraIsReleasedLikeASilentOne: a roster camera that
// never dials in holds the barrier, and the same two things release it
// that release a connected camera gone silent — its lease, counted from
// when the scheduler was built, or the round timeout.
func TestNeverRegisteredCameraIsReleasedLikeASilentOne(t *testing.T) {
	t.Run("lease", func(t *testing.T) {
		m := twoCameraMachine(t, WithLease(time.Minute))
		m.register(0, at(0))
		// Within the lease the absent camera blocks the round.
		quiet(t, "a report inside the lease", m.report(report(0, 0, boxA), at(time.Second)))
		acts := m.report(report(0, 10, boxA), at(2*time.Minute))
		var frames []int
		for _, o := range acts.sends {
			frames = append(frames, o.assignment.Frame)
			if !slices.Equal(o.assignment.Dead, []int{1}) {
				t.Fatalf("frame %d Dead = %v, want [1]", o.assignment.Frame, o.assignment.Dead)
			}
		}
		if !slices.Equal(frames, []int{0, 10}) {
			t.Fatalf("answered frames %v, want 0 then 10", frames)
		}
	})
	t.Run("lease timer", func(t *testing.T) {
		// The lease runs out while the round is pending and nothing else
		// happens to it — no further report, no disconnect, no round
		// timeout: the machine's own wake-up has to release it.
		const lease = 50 * time.Millisecond
		m := twoCameraMachine(t, WithLease(lease))
		m.register(0, at(0))
		acts := m.report(report(0, 0, boxA), at(time.Millisecond))
		quiet(t, "the report", acts)
		if !acts.wakeAt.Equal(at(lease)) {
			t.Fatalf("wake at %v, want the scheduler's birth plus the lease %v", acts.wakeAt, at(lease))
		}
		got := replies(t, m.tick(acts.wakeAt))
		if got[0] == nil || !slices.Equal(got[0].Dead, []int{1}) {
			t.Fatalf("replies = %+v, want frame 0 with camera 1 dead", got)
		}
	})
	t.Run("round timeout", func(t *testing.T) {
		const timeout = 50 * time.Millisecond
		m := twoCameraMachine(t, WithRoundTimeout(timeout))
		m.register(0, at(0))
		acts := m.report(report(0, 0, boxA), at(0))
		quiet(t, "the report: the absent camera holds the barrier", acts)
		if !acts.wakeAt.Equal(at(timeout)) {
			t.Fatalf("wake at %v, want %v", acts.wakeAt, at(timeout))
		}
		if got := replies(t, m.tick(at(timeout))); got[0] == nil || got[0].Frame != 0 {
			t.Fatalf("replies = %+v, want the partial round", got)
		}
	})
}

// TestMachineDeadCameraBroadcast is the lease-fed dead list with
// explicit timestamps: a camera that reported in round 0 goes silent,
// and round 10 completes without it, declares it dead in every reply,
// and charges its orphaned assignments to the reassignment counter.
func TestMachineDeadCameraBroadcast(t *testing.T) {
	const lease = 100 * time.Millisecond
	m := twoCameraMachine(t, WithLease(lease))
	m.register(0, at(0))
	m.register(1, at(0))
	quiet(t, "camera 1's round-0 report", m.report(report(1, 0, TrackReport{TrackID: 7, Box: [4]float64{900, 300, 980, 380}, Size: 64}), at(time.Millisecond)))
	acts := m.report(report(0, 0, boxA), at(2*time.Millisecond))
	for cam, a := range replies(t, acts) {
		if len(a.Dead) > 0 {
			t.Fatalf("round 0 declared %v dead to camera %d with both cameras live", a.Dead, cam)
		}
	}
	round0 := acts.emits[0].snap
	if round0.OutageFrames != 0 || round0.Reassignments != 0 {
		t.Fatalf("fault counters on a healthy round: %+v", round0)
	}
	if round0.Cameras[1].Assignments == 0 {
		t.Fatalf("camera 1 got no assignment in round 0: %+v", round0)
	}

	acts = m.report(report(0, 10, TrackReport{TrackID: 1, Box: [4]float64{110, 100, 160, 150}, Size: 64}), at(250*time.Millisecond))
	got := replies(t, acts)
	if len(got) != 2 {
		t.Fatalf("round 10 answered %d cameras, want both connected ones", len(got))
	}
	for cam, a := range got {
		if !slices.Equal(a.Dead, []int{1}) {
			t.Fatalf("round 10 Dead to camera %d = %v, want [1]", cam, a.Dead)
		}
	}
	round10 := acts.emits[0].snap
	if !round10.Partial || round10.OutageFrames != 1 || round10.Reassignments != round0.Cameras[1].Assignments {
		t.Fatalf("round 10 %+v: want partial, one outage, and camera 1's prior %d assignments reassigned",
			round10, round0.Cameras[1].Assignments)
	}
	if rd := acts.emits[0].round; rd.Seq != 1 || rd.Frame != 10 || rd.Reassignments != round10.Reassignments {
		t.Fatalf("round record %+v does not match its snapshot", rd)
	}
}

// TestLeaseReleaseIsTheDeadList: the step that releases a round on a
// camera's lease declares that camera dead and charges its outage, even
// when the camera's ping is the very next event — the barrier and the
// dead list read one time.
func TestLeaseReleaseIsTheDeadList(t *testing.T) {
	const lease = 100 * time.Millisecond
	m := twoCameraMachine(t, WithLease(lease))
	m.register(0, at(0))
	m.register(1, at(0))
	acts := m.report(report(0, 0, boxA), at(10*time.Millisecond))
	quiet(t, "the report", acts)
	released := m.tick(acts.wakeAt)
	quiet(t, "camera 1's ping right after", m.touch(1, acts.wakeAt))
	got := replies(t, released)
	if got[1] == nil || !slices.Equal(got[1].Dead, []int{1}) || !slices.Equal(got[0].Dead, []int{1}) {
		t.Fatalf("replies = %+v, want camera 1 dead in the round its lease released", got)
	}
	if snap := released.emits[0].snap; snap.OutageFrames != 1 {
		t.Fatalf("OutageFrames = %d, want 1", snap.OutageFrames)
	}
}

// TestMachineDropsSupersededRound: without a round timeout, a round
// nobody can join any more (its frame is below a completed one) is
// dropped when the later round completes, not scheduled after it when
// the camera that held it disconnects.
func TestMachineDropsSupersededRound(t *testing.T) {
	m := twoCameraMachine(t)
	m.register(0, at(0))
	m.register(1, at(0))
	var all []actions
	all = append(all, m.report(report(0, 0, boxA), at(time.Millisecond)))
	// Camera 0's client deadline passes; both cameras report frame 10.
	all = append(all, m.report(report(0, 10, boxA), at(5*time.Second)))
	done := m.report(report(1, 10), at(5*time.Second))
	if got := replies(t, done); len(got) != 2 || got[0].Frame != 10 {
		t.Fatalf("round 10 replies = %+v, want both cameras", got)
	}
	all = append(all, done, m.leave(1, at(6*time.Second)), m.tick(at(time.Hour)))
	for _, acts := range all {
		for _, e := range acts.emits {
			if e.snap.Frame == 0 {
				t.Fatalf("superseded round 0 emitted after round 10: %+v", e.snap)
			}
		}
		for _, o := range acts.sends {
			if o.assignment != nil && o.assignment.Frame == 0 {
				t.Fatalf("superseded round 0 answered camera %d after round 10", o.cam)
			}
		}
	}
	if len(m.rounds) != 0 {
		t.Fatalf("%d rounds still pending", len(m.rounds))
	}
	if got := m.report(report(1, 0), at(7*time.Second)); len(got.sends) != 1 || got.sends[0].err == "" {
		t.Fatalf("a report for the superseded frame got %+v, want a stale-round error", got.sends)
	}
}
