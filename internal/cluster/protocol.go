// Package cluster implements the testbed's communication layer: camera
// nodes connect to a central scheduler over TCP (the paper uses "TCP
// socket programming for reliable data communication between the edge
// devices and the central scheduler"). At each key frame every camera
// uploads its detected-object list; the scheduler associates them across
// cameras, runs the central-stage BALB algorithm, and replies to each
// camera with the tracks it keeps, the tracks it shadows (with their
// assigned camera), and the horizon's camera priority order.
//
// Messages are length-prefixed JSON for debuggability; frames are small
// (tens of boxes), so the codec favours clarity over compactness.
//
// One scheduler service speaks the protocol in two shapes. NewScheduler
// runs one global round over the whole fleet — the paper's shape.
// NewShardedScheduler partitions the fleet into overlap groups
// (internal/shard) and runs one independent round machine per shard,
// coordinated only through the boundary hand-off claims; a node cannot
// tell which it is talking to, except that shard-scoped assignments
// carry their camera roster (Assignment.Roster). docs/ARCHITECTURE.md
// §2 has the design, docs/SCALING.md §3 the measured effect.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"unicode/utf8"
)

// MaxMessageSize bounds a single message to protect against corrupt
// length prefixes.
const MaxMessageSize = 4 << 20

// Message types. Receivers must skip types they do not understand (see
// Client.KeyFrame and the scheduler's handle loop), so new types can be
// added without breaking older peers.
const (
	TypeHello      = "hello"
	TypeDetections = "detections"
	TypeAssignment = "assignment"
	TypeError      = "error"
	// TypePing and TypePong are lightweight liveness heartbeats: a node
	// pings between key frames, the scheduler echoes a pong and refreshes
	// the camera's liveness lease (docs/FAULTS.md).
	TypePing = "ping"
	TypePong = "pong"
)

// Heartbeat is the ping/pong payload. Seq lets a sender match pongs to
// pings; the scheduler echoes it untouched.
type Heartbeat struct {
	// Camera is the pinging node's index.
	Camera int `json:"camera"`
	// Seq is a sender-local heartbeat counter.
	Seq int `json:"seq,omitempty"`
}

// Hello registers a camera with the scheduler.
type Hello struct {
	// Camera is the node's index in the deployment roster.
	Camera int `json:"camera"`
	// FrameW, FrameH are the camera's image dimensions in pixels; the
	// scheduler uses them to compute the node's cell grid. Zero means
	// the node does not need masks (protocol tests, probes).
	FrameW float64 `json:"frame_w,omitempty"`
	FrameH float64 `json:"frame_h,omitempty"`
}

// HelloAck is the scheduler's registration reply. The per-cell coverage
// sets are static (cameras are fixed), so they are shipped once here;
// the per-horizon priority order arrives with every Assignment.
type HelloAck struct {
	// Camera echoes the registered index.
	Camera int `json:"camera"`
	// GridCols, GridRows shape the camera's cell grid.
	GridCols int `json:"grid_cols,omitempty"`
	GridRows int `json:"grid_rows,omitempty"`
	// Coverage[cell] lists the cameras predicted to see an average
	// object centred in that cell (always includes this camera).
	Coverage [][]int `json:"coverage,omitempty"`
}

// TrackReport is one tracked object as reported by a camera at a key
// frame.
type TrackReport struct {
	// TrackID is the camera-local track identifier.
	TrackID int `json:"track_id"`
	// Box is the pixel bounding box [minX, minY, maxX, maxY].
	Box [4]float64 `json:"box"`
	// Size is the quantized target size for this horizon.
	Size int `json:"size"`
}

// Detections is a camera's key-frame upload.
type Detections struct {
	// Camera is the sender's index.
	Camera int `json:"camera"`
	// Frame is the key-frame index (used to align rounds).
	Frame int `json:"frame"`
	// Tracks are the camera's current tracks.
	Tracks []TrackReport `json:"tracks"`
}

// ShadowOrder tells a camera to stop inspecting a track and shadow it.
type ShadowOrder struct {
	// TrackID is the camera-local track to shadow.
	TrackID int `json:"track_id"`
	// AssignedCamera is the camera now responsible for the object.
	AssignedCamera int `json:"assigned_camera"`
}

// Assignment is the scheduler's key-frame reply to one camera.
type Assignment struct {
	// Frame echoes the round's key-frame index.
	Frame int `json:"frame"`
	// Keep lists track IDs the camera keeps inspecting.
	Keep []int `json:"keep"`
	// Shadows lists tracks reassigned to other cameras.
	Shadows []ShadowOrder `json:"shadows"`
	// Priority is the horizon's camera priority order (highest first),
	// which drives the distributed stage.
	Priority []int `json:"priority"`
	// Dead lists roster cameras the scheduler's liveness leases declare
	// dead this round (ascending). Every node installs the identical
	// set into its DistributedPolicy, so failover ownership stays
	// communication-free. Omitted when every camera is live — and
	// always when leases are off — so the legacy wire format is
	// unchanged in fault-free deployments.
	Dead []int `json:"dead,omitempty"`
	// Roster, when present, marks this as a shard-scoped assignment
	// from a sharded scheduler's round: it lists the shard's cameras
	// (ascending global indices), and Priority orders exactly those
	// cameras rather than a 0..M-1 permutation. Nodes build a scoped
	// ownership policy (core.NewScopedPolicy) from it, which skips
	// foreign-shard cameras in coverage sets. Omitted by the global
	// scheduler, keeping the legacy wire format unchanged.
	Roster []int `json:"roster,omitempty"`
	// AdaptLevel is the degradation-ladder rung the scheduler's adapt
	// controller (WithAdapt) holds this horizon: nodes cap their
	// inspection input sizes at adapt.SizeCapFor(level) and stretch
	// their key-frame cadence by adapt.StretchFor(level). Omitted at
	// level 0 — and always without WithAdapt — so the legacy wire format
	// is unchanged for undegraded deployments (docs/FAULTS.md §10).
	AdaptLevel int `json:"adapt_level,omitempty"`
}

// Envelope is the wire message union: Type names which single payload
// pointer is set (TypeHello carries Hello, TypeError only the Error
// string, and so on); all other fields are nil/empty on the wire.
type Envelope struct {
	// Type is one of the Type* constants and selects the payload.
	Type string `json:"type"`
	// Exactly one payload field matches Type; the rest are omitted.
	Hello      *Hello      `json:"hello,omitempty"`
	Ack        *HelloAck   `json:"ack,omitempty"`
	Detections *Detections `json:"detections,omitempty"`
	Assignment *Assignment `json:"assignment,omitempty"`
	Heartbeat  *Heartbeat  `json:"heartbeat,omitempty"`
	// Error carries a TypeError message's human-readable reason.
	Error string `json:"error,omitempty"`
}

// WriteMessage frames and writes one envelope: 4-byte big-endian length,
// then the JSON body, issued as a single Write. One write per envelope
// means concurrent writers sharing a conn (each envelope guarded by its
// own lock) cannot interleave a torn header/body pair, and each message
// costs one syscall instead of two. A Type or Error that is not valid
// UTF-8 is an error: encoding/json would send U+FFFD in its place, and
// the peer would read a different message than the one written.
func WriteMessage(w io.Writer, env *Envelope) error {
	if !utf8.ValidString(env.Type) || !utf8.ValidString(env.Error) {
		return fmt.Errorf("cluster: encode: type or error is not valid UTF-8")
	}
	body, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("cluster: encode: %w", err)
	}
	if len(body) > MaxMessageSize {
		return fmt.Errorf("cluster: message %d bytes exceeds limit", len(body))
	}
	frame := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(body)))
	copy(frame[4:], body)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("cluster: write message: %w", err)
	}
	return nil
}

// bodyStep is how far ReadMessage grows a body ahead of the bytes that
// have arrived.
const bodyStep = 64 << 10

// ReadMessage reads one framed envelope. The body buffer grows as its
// bytes arrive, a bodyStep at a time, so a peer that claims a large
// length and stalls pins one step, not the claim. The end of the stream
// between messages is io.EOF; inside one it is io.ErrUnexpectedEOF.
func ReadMessage(r io.Reader) (*Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n == 0 || n > MaxMessageSize {
		return nil, fmt.Errorf("cluster: bad message length %d", n)
	}
	var body []byte
	for len(body) < n {
		have, step := len(body), min(n-len(body), bodyStep)
		if have+step > cap(body) {
			body = append(make([]byte, 0, max(have+step, 2*cap(body))), body...)
		}
		m, err := io.ReadFull(r, body[have:have+step])
		body = body[:have+m]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised more
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: read body: %w", err)
		}
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("cluster: decode: %w", err)
	}
	return &env, nil
}
