package cluster

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// nodeMachine is a camera node's end of the scheduler connection with the
// I/O taken out. It takes one event at a time — an operation begun (a
// connect, a key-frame upload, a heartbeat), a dial's result, a reply
// read, the connection lost, a tick — each stamped with the time it
// happened, and answers with what the shell is to do next. It owns the
// retry loop (at most attempts connection attempts per operation,
// Backoff{seed} between them), the reply rules, and the reconnect count;
// it has no lock and no clock. Client is its TCP shell.
type nodeMachine struct {
	camera, attempts int
	seed             int64
	// up is set while a connection is live, ever once one has been.
	up, ever   bool
	reconnects int
	// pings numbers the live connection's heartbeats.
	pings int
	// op is the operation in flight, nil when idle.
	op *nodeOp
}

// nodeOp is one operation and its retry loop: env is what each attempt
// sends (nil: a bare connect), awaiting frame's assignment or pong seq
// for wait; attempt counts failures; expires is the current attempt's
// reply deadline, retryAt the next attempt's start (zero when unset).
type nodeOp struct {
	env              *Envelope
	frame, seq       int
	wait             time.Duration
	attempt          int
	expires, retryAt time.Time
}

// errStaleRound marks a key frame the scheduler answered "stale round":
// a miss, not an operation that gave up.
var errStaleRound = errors.New("cluster: key frame missed its round")

// nodeActions is what one event asks of the shell, in order: tear the
// live connection down (drop), dial a new one and answer with dialed,
// send an envelope; then take the outcome (done: the assignment of a key
// frame, or the error the operation gave up with), or read replies until
// wakeAt (await), or sleep until wakeAt and tick.
type nodeActions struct {
	drop, dial, await, done bool
	send                    *Envelope
	assignment              *Assignment
	err                     error
	wakeAt                  time.Time
}

// connect begins a bare connect: it settles once a connection is live.
func (m *nodeMachine) connect(t time.Time) nodeActions {
	m.op = &nodeOp{}
	return m.attempt(t)
}

// keyFrame begins a key frame's upload, awaiting that round's assignment
// for wait (zero: 10 seconds).
func (m *nodeMachine) keyFrame(frame int, tracks []TrackReport, wait time.Duration, t time.Time) nodeActions {
	if wait <= 0 {
		wait = 10 * time.Second
	}
	env := &Envelope{Type: TypeDetections, Detections: &Detections{Camera: m.camera, Frame: frame, Tracks: tracks}}
	m.op = &nodeOp{env: env, frame: frame, wait: wait}
	return m.attempt(t)
}

// ping begins a heartbeat, awaiting its pong for wait (zero: 2 seconds).
func (m *nodeMachine) ping(wait time.Duration, t time.Time) nodeActions {
	if wait <= 0 {
		wait = 2 * time.Second
	}
	m.op = &nodeOp{env: &Envelope{Type: TypePing}, wait: wait}
	return m.attempt(t)
}

// attempt starts one attempt of the operation in flight: dial first when
// no connection is live, else send and await the reply. Every attempt of
// a heartbeat is a new heartbeat of the live connection.
func (m *nodeMachine) attempt(t time.Time) nodeActions {
	op := m.op
	op.retryAt = time.Time{}
	switch {
	case !m.up:
		return nodeActions{dial: true}
	case op.env == nil:
		return m.finish(nil)
	case op.env.Type == TypePing:
		m.pings++
		op.seq = m.pings
		op.env = &Envelope{Type: TypePing, Heartbeat: &Heartbeat{Camera: m.camera, Seq: op.seq}}
	}
	op.expires = t.Add(op.wait)
	return nodeActions{send: op.env, await: true, wakeAt: op.expires}
}

// dialed takes the result of the dial the machine asked for: a
// registered connection (err nil), or why there is none.
func (m *nodeMachine) dialed(err error, t time.Time) nodeActions {
	if err != nil {
		return m.fail(err, t)
	}
	m.up, m.pings = true, 0
	if m.ever {
		m.reconnects++
	}
	m.ever = true
	return m.attempt(t)
}

// reply takes one message read from the live connection while a reply
// is awaited. A key frame is
// settled by the assignment for its own frame; an assignment for another
// round (stale: its round was given up on, or a reconnect raced it) is
// skipped. A key frame answered "stale round" is settled as a miss on
// the live connection: its round is scheduled, so no resend can join
// it. A heartbeat is settled by the pong echoing its number (or none).
// Any other scheduler error fails either; every other message — pongs
// and assignments not asked for, types this version does not know — is
// skipped, so protocol additions and reconnect races never fail an
// operation.
func (m *nodeMachine) reply(env *Envelope, t time.Time) nodeActions {
	op := m.op
	switch {
	case env.Type == TypeError && op.env.Type == TypeDetections && strings.HasPrefix(env.Error, staleRound):
		m.op = nil
		return nodeActions{done: true, err: fmt.Errorf("%w: camera %d: %s", errStaleRound, m.camera, env.Error)}
	case env.Type == TypeError:
		return m.fail(fmt.Errorf("cluster: scheduler error: %s", env.Error), t)
	case op.env.Type == TypeDetections && env.Type == TypeAssignment:
		if env.Assignment == nil {
			return m.fail(errors.New("cluster: empty assignment"), t)
		}
		if env.Assignment.Frame == op.frame {
			return m.finish(env.Assignment)
		}
	case op.env.Type == TypePing && env.Type == TypePong:
		if env.Heartbeat == nil || env.Heartbeat.Seq == op.seq {
			return m.finish(nil)
		}
	}
	return nodeActions{await: true, wakeAt: op.expires}
}

// lost takes the failure of the live connection during an operation: a
// write or read error.
func (m *nodeMachine) lost(err error, t time.Time) nodeActions { return m.fail(err, t) }

// tick lets time pass to t: a reply deadline that ran out fails its
// attempt, and a backoff that ran out starts the next one.
func (m *nodeMachine) tick(t time.Time) nodeActions {
	op := m.op
	switch {
	case op == nil:
		return nodeActions{}
	case !op.expires.IsZero() && !t.Before(op.expires):
		return m.fail(fmt.Errorf("cluster: camera %d: reply deadline exceeded", m.camera), t)
	case !op.expires.IsZero():
		return nodeActions{await: true, wakeAt: op.expires}
	case op.retryAt.IsZero():
		return nodeActions{} // a dial is in flight
	case !t.Before(op.retryAt):
		return m.attempt(t)
	}
	return nodeActions{wakeAt: op.retryAt}
}

// fail ends the current attempt: the connection, if live, is torn down
// so the next attempt dials afresh after the backoff delay — or, the
// attempts spent, the operation gives up with err.
func (m *nodeMachine) fail(err error, t time.Time) nodeActions {
	op := m.op
	acts := nodeActions{drop: m.up}
	m.up = false
	op.expires = time.Time{}
	op.attempt++
	if op.attempt >= m.attempts {
		m.op = nil
		acts.done, acts.err = true, err
		return acts
	}
	op.retryAt = t.Add(Backoff{Seed: m.seed}.Delay(op.attempt - 1))
	acts.wakeAt = op.retryAt
	return acts
}

// finish settles the operation in flight.
func (m *nodeMachine) finish(a *Assignment) nodeActions {
	m.op = nil
	return nodeActions{done: true, assignment: a}
}
