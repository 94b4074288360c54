package cluster

import "time"

// This file opens the two machines to the cluster_test package, whose
// in-process deployment drives node.Runtimes — which import this package —
// against a scheduler on virtual time.

// VirtualScheduler is a Scheduler's shell with the I/O taken out: the
// caller is the transport, delivering each connection's hello, messages
// and close one at a time, stamped with virtual time, and ticking the
// machines at WakeAt. Connections are named by caller-chosen ids.
type VirtualScheduler struct {
	s *Scheduler
	// conn[cam] is the id of global camera cam's registered connection
	// (0: none).
	conn []int
	// wakeAt is the machines' earliest wake-up.
	wakeAt time.Time
}

// Message is one envelope the scheduler sends to global camera Camera's
// registered connection Conn.
type Message struct {
	Camera, Conn int
	Env          *Envelope
}

// Virtualize starts s's machines at t for a virtual-time transport; s
// must not also Serve.
func Virtualize(s *Scheduler, t time.Time) *VirtualScheduler {
	for _, m := range s.machines {
		m.start(t)
	}
	return &VirtualScheduler{s: s, conn: make([]int, len(s.shardOf))}
}

// WakeAt is when the machines next need a Tick (zero: never).
func (v *VirtualScheduler) WakeAt() time.Time { return v.wakeAt }

// Conn is the id of camera cam's registered connection (0: none).
func (v *VirtualScheduler) Conn(cam int) int { return v.conn[cam] }

// Hello registers connection conn from its hello at t, taking the
// registration over from an older connection of the camera, and returns
// the ack (or the rejection) to send back on conn, and the messages the
// event caused.
func (v *VirtualScheduler) Hello(conn int, h *Hello, t time.Time) (*Envelope, []Message) {
	s := v.s
	if h.Camera < 0 || h.Camera >= len(s.shardOf) {
		return &Envelope{Type: TypeError, Error: "camera out of range"}, nil
	}
	sid := s.shardOf[h.Camera]
	m := s.machines[sid]
	cam := m.local(h.Camera)
	v.conn[h.Camera] = conn
	msgs := v.run(sid, func(m *machine, t time.Time) actions { return m.register(cam, t) }, t)
	ack, err := s.helloAck(m, cam, h)
	if err != nil {
		return &Envelope{Type: TypeError, Error: err.Error()}, msgs
	}
	return &Envelope{Type: TypeHello, Ack: ack}, msgs
}

// Receive handles one message read from connection conn of camera cam at
// t, returning the reply due on conn (nil: none) and the messages the
// event caused. A connection that a newer one replaced is closed: the
// shell reads nothing more from it.
func (v *VirtualScheduler) Receive(cam, conn int, env *Envelope, t time.Time) (*Envelope, []Message) {
	if v.conn[cam] != conn {
		return nil, nil
	}
	var msgs []Message
	reply := v.s.receive(env, cam, func(event func(m *machine, t time.Time) actions) {
		msgs = v.run(v.s.shardOf[cam], event, t)
	})
	return reply, msgs
}

// Close is the shell noticing at t that connection conn of camera cam
// closed: the camera leaves, unless a newer connection took over.
func (v *VirtualScheduler) Close(cam, conn int, t time.Time) []Message {
	sid := v.s.shardOf[cam]
	if v.conn[cam] != conn {
		return v.run(sid, (*machine).tick, t)
	}
	v.conn[cam] = 0
	local := v.s.machines[sid].local(cam)
	return v.run(sid, func(m *machine, t time.Time) actions { return m.leave(local, t) }, t)
}

// Tick lets time pass to t on every machine.
func (v *VirtualScheduler) Tick(t time.Time) []Message {
	return v.run(everyMachine, (*machine).tick, t)
}

// Pending is the number of rounds still pending on any machine.
func (v *VirtualScheduler) Pending() int {
	n := 0
	for _, m := range v.s.machines {
		n += len(m.rounds)
	}
	return n
}

func (v *VirtualScheduler) run(sid int, event func(m *machine, t time.Time) actions, t time.Time) []Message {
	msgs, wakeAt := v.s.step(sid, event, t, nil)
	v.wakeAt = wakeAt
	out := make([]Message, 0, len(msgs))
	for _, msg := range msgs {
		if c := v.conn[msg.cam]; c != 0 {
			out = append(out, Message{Camera: msg.cam, Conn: c, Env: msg.env})
		}
	}
	return out
}

// NodeMachine opens a node machine: each method is the machine's event
// of the same name, its actions returned as NodeActions.
type NodeMachine struct{ m nodeMachine }

// NodeActions mirrors nodeActions.
type NodeActions struct {
	Drop, Dial bool
	Send       *Envelope
	Await      bool
	Done       bool
	Assignment *Assignment
	Err        error
	WakeAt     time.Time
}

func NewNodeMachine(camera int, seed int64, attempts int) *NodeMachine {
	return &NodeMachine{nodeMachine{camera: camera, seed: seed, attempts: max(attempts, 1)}}
}

func open(a nodeActions) NodeActions {
	return NodeActions{Drop: a.drop, Dial: a.dial, Send: a.send, Await: a.await, Done: a.done,
		Assignment: a.assignment, Err: a.err, WakeAt: a.wakeAt}
}

func (n *NodeMachine) Connect(t time.Time) NodeActions { return open(n.m.connect(t)) }
func (n *NodeMachine) KeyFrame(frame int, tracks []TrackReport, wait time.Duration, t time.Time) NodeActions {
	return open(n.m.keyFrame(frame, tracks, wait, t))
}
func (n *NodeMachine) Ping(wait time.Duration, t time.Time) NodeActions {
	return open(n.m.ping(wait, t))
}
func (n *NodeMachine) Dialed(err error, t time.Time) NodeActions    { return open(n.m.dialed(err, t)) }
func (n *NodeMachine) Reply(env *Envelope, t time.Time) NodeActions { return open(n.m.reply(env, t)) }
func (n *NodeMachine) Lost(err error, t time.Time) NodeActions      { return open(n.m.lost(err, t)) }
func (n *NodeMachine) Tick(t time.Time) NodeActions                 { return open(n.m.tick(t)) }
func (n *NodeMachine) Reconnects() int                              { return n.m.reconnects }
