package cluster

import (
	"errors"
	"net"
	"testing"
	"time"
)

// TestBackoffDelayGrowsAndCaps pins the reconnect schedule as literal
// values, for seeds mvnode derives (seed + camera: 42 + 0 and 42 + 1),
// so any edit of the schedule's constants fails here: 100ms·2ⁿ, ±20%,
// capped at 5s.
func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	want := map[int64][]time.Duration{
		42: {105133623, 177628119, 396164579, 895386640, 1514691853, 2970687587, 4827782448, 4430829751},
		43: {82634821, 222472349, 466465295, 742231380, 1817105985, 3687804669, 5000000000, 5000000000},
	}
	for seed, delays := range want {
		b := Backoff{Seed: seed}
		for attempt, w := range delays {
			if got := b.Delay(attempt); got != w {
				t.Fatalf("seed %d: Delay(%d) = %d, want %d", seed, attempt, got, w)
			}
		}
		if got := b.Delay(-3); got != delays[0] {
			t.Fatalf("seed %d: Delay(-3) = %v, want Delay(0) = %v", seed, got, delays[0])
		}
		if got := b.Delay(40); got > backoffMax {
			t.Fatalf("seed %d: Delay(40) = %v, above the cap", seed, got)
		}
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	b := Backoff{Seed: 42}
	for attempt := 0; attempt < 8; attempt++ {
		d1 := b.Delay(attempt)
		d2 := b.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("Delay(%d) not deterministic: %v vs %v", attempt, d1, d2)
		}
		nominal := min(backoffBase<<attempt, backoffMax)
		lo := time.Duration(float64(nominal) * (1 - backoffJitter))
		hi := min(time.Duration(float64(nominal)*(1+backoffJitter)), backoffMax)
		if d1 < lo || d1 > hi {
			t.Fatalf("Delay(%d) = %v outside jitter band [%v, %v]", attempt, d1, lo, hi)
		}
	}
	// Different seeds spread differently somewhere in the schedule.
	other := Backoff{Seed: 43}
	same := true
	for attempt := 0; attempt < 8; attempt++ {
		if b.Delay(attempt) != other.Delay(attempt) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produce identical schedules")
	}
}

// TestReconnectClientRetriesOnFakeClock walks the node machine through
// an operation whose every dial fails, on virtual time: it must ask for
// MaxAttempts dials, wait the backoff schedule between them — the
// machine's wake-ups, not sleeps — and give up with the dial error.
func TestReconnectClientRetriesOnFakeClock(t *testing.T) {
	m := nodeMachine{camera: 0, seed: 7, attempts: 4}
	dialErr := errors.New("synthetic dial failure")
	now := epoch
	acts := m.connect(now)
	dials := 0
	var waits []time.Duration
	for !acts.done {
		switch {
		case acts.dial:
			dials++
			acts = m.dialed(dialErr, now)
		case !acts.wakeAt.IsZero():
			waits = append(waits, acts.wakeAt.Sub(now))
			now = acts.wakeAt
			acts = m.tick(now)
		default:
			t.Fatalf("stuck with actions %+v", acts)
		}
	}
	if !errors.Is(acts.err, dialErr) {
		t.Fatalf("gave up with %v, want %v", acts.err, dialErr)
	}
	if dials != 4 {
		t.Fatalf("dials = %d, want 4", dials)
	}
	if len(waits) != 3 {
		t.Fatalf("waits = %v, want 3 entries", waits)
	}
	for i, d := range waits {
		if want := (Backoff{Seed: 7}).Delay(i); d != want {
			t.Fatalf("wait %d = %v, want %v", i, d, want)
		}
	}
}

// TestReconnectClientRecoversMidSchedule: the first two dials fail, the
// third registers; the operation settles after two backoff waits, and
// the first connection is not a reconnect — the next one is. A ping on
// the live connection then awaits the pong echoing its number.
func TestReconnectClientRecoversMidSchedule(t *testing.T) {
	m := nodeMachine{camera: 0, seed: 1, attempts: 4}
	now := epoch
	acts := m.connect(now)
	dials, waits := 0, 0
	for !acts.done {
		switch {
		case acts.dial:
			dials++
			var err error
			if dials <= 2 {
				err = errors.New("flaky dial")
			}
			acts = m.dialed(err, now)
		default:
			waits++
			now = acts.wakeAt
			acts = m.tick(now)
		}
	}
	if acts.err != nil || dials != 3 || waits != 2 {
		t.Fatalf("connect: err %v after %d dials and %d waits, want nil after 3 and 2", acts.err, dials, waits)
	}
	if m.reconnects != 0 {
		t.Fatalf("reconnects = %d, want 0", m.reconnects)
	}
	acts = m.ping(0, now)
	if acts.send == nil || acts.send.Heartbeat.Seq != 1 || !acts.await {
		t.Fatalf("ping: actions %+v, want the first heartbeat sent and awaited", acts)
	}
	if acts = m.reply(&Envelope{Type: TypePong, Heartbeat: &Heartbeat{Seq: 7}}, now); acts.done {
		t.Fatal("a pong for another heartbeat settled the ping")
	}
	if acts = m.reply(&Envelope{Type: TypePong, Heartbeat: &Heartbeat{Seq: 1}}, now); !acts.done || acts.err != nil {
		t.Fatalf("the matching pong left %+v", acts)
	}
	// The connection breaks during the next heartbeat: the machine drops
	// it, backs off, and redials — a reconnect — to send a new heartbeat.
	m.ping(0, now)
	if acts = m.lost(errors.New("reset"), now); !acts.drop || acts.wakeAt.IsZero() {
		t.Fatalf("loss mid-ping: %+v, want a drop and a backoff", acts)
	}
	if acts = m.tick(acts.wakeAt); !acts.dial {
		t.Fatalf("after the backoff: %+v, want a dial", acts)
	}
	if acts = m.dialed(nil, now); acts.send == nil || acts.send.Heartbeat.Seq != 1 || m.reconnects != 1 {
		t.Fatalf("redial: %+v, reconnects %d, want the new connection's first heartbeat and 1", acts, m.reconnects)
	}
}

// TestStaleRoundSettlesAsMiss: a key frame whose round the scheduler
// already scheduled is answered "stale round". The machine settles it as
// a miss at once — no drop, no backoff, no redial, no resend — and the
// live connection carries the next key frame.
func TestStaleRoundSettlesAsMiss(t *testing.T) {
	m := nodeMachine{camera: 1, seed: 7, attempts: 4}
	now := epoch
	if acts := m.connect(now); !acts.dial {
		t.Fatalf("connect: %+v, want a dial", acts)
	}
	if acts := m.dialed(nil, now); !acts.done || acts.err != nil {
		t.Fatalf("dialed: %+v, want settled", acts)
	}
	acts := m.keyFrame(20, nil, 0, now)
	if acts.send == nil || !acts.await {
		t.Fatalf("key frame: %+v, want the report sent and awaited", acts)
	}
	acts = m.reply(&Envelope{Type: TypeError, Error: staleRound + ": frame 20, round 30 already scheduled"}, now)
	if !acts.done || !errors.Is(acts.err, errStaleRound) || acts.assignment != nil || acts.drop || acts.dial || acts.send != nil {
		t.Fatalf("stale answer: %+v, want a miss settled on the live connection", acts)
	}
	if !m.up || m.reconnects != 0 || m.op != nil {
		t.Fatalf("after the miss: up %v, reconnects %d, op %+v; want the connection kept", m.up, m.reconnects, m.op)
	}
	acts = m.keyFrame(40, nil, 0, now)
	if acts.dial || acts.send == nil || acts.send.Detections.Frame != 40 {
		t.Fatalf("next key frame: %+v, want its report sent on the live connection", acts)
	}
	if acts = m.reply(&Envelope{Type: TypeAssignment, Assignment: &Assignment{Frame: 40}}, now); !acts.done || acts.err != nil || acts.assignment == nil {
		t.Fatalf("next key frame's assignment: %+v", acts)
	}
	// Any other scheduler error still fails the attempt.
	m.keyFrame(50, nil, 0, now)
	if acts = m.reply(&Envelope{Type: TypeError, Error: "camera 1 not registered"}, now); acts.done || !acts.drop {
		t.Fatalf("other error: %+v, want the attempt failed and the connection dropped", acts)
	}
}

func TestReconnectClientClosedFailsFast(t *testing.T) {
	rc := NewReconnectClient(ReconnectConfig{
		Addr: "test:0", Camera: 0,
		Dial: func(string, time.Duration) (net.Conn, error) {
			t.Fatal("dial after Close")
			return nil, nil
		},
	})
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := rc.Connect(); !errors.Is(err, errClosed) {
		t.Fatalf("Connect after Close = %v, want errClosed", err)
	}
	if _, err := rc.KeyFrame(0, nil, 0); !errors.Is(err, errClosed) {
		t.Fatalf("KeyFrame after Close = %v, want errClosed", err)
	}
	if d := time.Since(start); d > backoffBase/2 {
		t.Fatalf("closed client took %v: it slept", d)
	}
}
