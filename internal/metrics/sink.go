// Sink is the streaming half of the metrics package: where the
// accumulators (RecallAccumulator, LatencySeries, Breakdown) summarize a
// run after it finishes, a Sink observes the run while it happens. The
// pipeline, the cluster scheduler, and camera nodes emit one Snapshot per
// frame (or per scheduling round); long-running deployments attach a sink
// to expose live recall/latency without stopping.
//
// The determinism contract (docs/CONCURRENCY.md) is preserved by
// construction: every Snapshot field emitted by the pipeline is derived
// from the simulation model — the same fields Report.Modeled() keeps —
// assembled in fixed camera order after the per-camera merge. Attaching
// any sink never changes a run's modelled results; the scheduler-side
// RoundLatency field is the only measured (wall-clock) quantity, and only
// the cluster scheduler (not under the contract) sets it.
//
// Sink implementations shipped here are safe for concurrent RecordFrame
// calls: one sink may be shared by several concurrent pipeline runs (the
// experiments fan-out) or scheduler rounds. Lifecycle: RecordFrame any
// number of times, then Flush (durable sinks persist buffered snapshots),
// then — for sinks that own resources — Close, after which RecordFrame
// must not be called again. See docs/OBSERVABILITY.md.
package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Snapshot source labels.
const (
	// SourcePipeline marks per-frame snapshots from an in-process
	// pipeline.Run.
	SourcePipeline = "pipeline"
	// SourceScheduler marks per-round snapshots from the cluster's
	// central scheduler.
	SourceScheduler = "scheduler"
	// SourceNode marks per-frame snapshots from a single camera node
	// runtime.
	SourceNode = "node"
)

// CameraSnapshot is one camera's share of a Snapshot.
type CameraSnapshot struct {
	// Camera is the camera index.
	Camera int `json:"camera"`
	// Latency is the camera's modelled inference latency: this frame's
	// (pipeline/node sources) or the scheduled per-horizon-frame latency
	// of the round's assignment (scheduler source).
	Latency time.Duration `json:"latency_ns"`
	// Batches and Images count the partial-inspection batches launched
	// and regions inspected (this frame, or implied by the round's
	// assignment).
	Batches int `json:"batches,omitempty"`
	Images  int `json:"images,omitempty"`
	// BatchOccupancy is the mean fill fraction of the launched batches
	// (1.0 = every batch at its device limit), 0 when no batches ran.
	BatchOccupancy float64 `json:"batch_occupancy,omitempty"`
	// Assignments is the number of objects the central stage assigned to
	// this camera (scheduler source only).
	Assignments int `json:"assignments,omitempty"`
	// Tracks and Shadows are the camera's live track and shadow counts
	// after the frame (pipeline/node sources).
	Tracks  int `json:"tracks,omitempty"`
	Shadows int `json:"shadows,omitempty"`
}

// Snapshot is one live observation of a running system: a frame of the
// in-process pipeline, a frame of a camera node, or a completed
// scheduling round of the cluster scheduler. Cameras are always in
// ascending camera-index order.
type Snapshot struct {
	// Source is one of SourcePipeline, SourceScheduler, SourceNode.
	Source string `json:"source"`
	// Label identifies the emitting run (e.g. the scheduling mode, an
	// experiment point, or "camera3").
	Label string `json:"label,omitempty"`
	// Seq numbers the snapshots of one emitter from 0, gap-free even
	// when a downstream sink drops snapshots.
	Seq int `json:"seq"`
	// Frame is the frame index (pipeline/node) or the round's key-frame
	// index (scheduler).
	Frame int `json:"frame"`
	// TP, FN and Recall are the cumulative object-recall counters so far
	// (pipeline source; zero elsewhere — nodes cannot see the
	// cross-camera truth denominator).
	TP     int     `json:"tp,omitempty"`
	FN     int     `json:"fn,omitempty"`
	Recall float64 `json:"recall,omitempty"`
	// Detected is the cumulative count of distinct ground-truth objects
	// this emitter has detected (node source).
	Detected int `json:"detected,omitempty"`
	// DegradedFrames is the cumulative count of frames this node has
	// processed in degraded mode — no scheduler assignment, inspecting
	// all of its own tracks under its last-known priority order and
	// masks (node source; see docs/FAULTS.md).
	DegradedFrames int `json:"degraded_frames,omitempty"`
	// Reconnects is the cumulative count of successful scheduler
	// reconnections by this node's client (node source).
	Reconnects int `json:"reconnects,omitempty"`
	// OutageFrames is the cumulative count of camera-frames lost to
	// data-plane faults: frames where a camera was down and produced no
	// observation (pipeline/node), or dead camera-rounds (scheduler).
	// Zero — and absent on the wire — in fault-free runs
	// (docs/FAULTS.md, "Data-plane failure model").
	OutageFrames int `json:"outage_frames,omitempty"`
	// OrphanedObjects is the cumulative count of objects dropped because
	// their owner died and no live camera covers them (pipeline/node).
	OrphanedObjects int `json:"orphaned_objects,omitempty"`
	// Reassignments is the cumulative count of failover ownership
	// transfers: shadow promotions because the owning camera is dead
	// (pipeline/node), or objects re-scheduled away from lease-expired
	// cameras (scheduler).
	Reassignments int `json:"reassignments,omitempty"`
	// IngestedFrames, ShedFrames, and QueueDepth describe a live ingest
	// front-end feeding the engine (pipeline source driven by a
	// pipeline.IngestSource; docs/STREAMING.md §6): the cumulative
	// per-camera frame parts admitted into the bounded queues, the
	// cumulative parts the shed policy dropped, and the total parts still
	// queued after this frame. Zero — and absent on the wire — for trace
	// and replay sources, so recorded fault-free output is unchanged.
	IngestedFrames int `json:"ingested_frames,omitempty"`
	ShedFrames     int `json:"shed_frames,omitempty"`
	QueueDepth     int `json:"queue_depth,omitempty"`
	// AdaptLevel is the degradation-ladder rung in force after this
	// frame or round, AdaptTransitions the cumulative level changes, and
	// SLOViolations the cumulative frames whose modelled latency
	// exceeded the configured SLO (docs/FAULTS.md §10). All zero — and
	// absent on the wire — when the adapt controller is disabled or
	// never engaged, so pre-adapt recorded output is unchanged.
	AdaptLevel       int `json:"adapt_level,omitempty"`
	AdaptTransitions int `json:"adapt_transitions,omitempty"`
	SLOViolations    int `json:"slo_violations,omitempty"`
	// Tenant identifies the serving-pool tenant behind a pipeline
	// snapshot when the engine is coupled to a shared executor pool
	// (pipeline.Config.Serve; docs/SERVING.md). Empty — and absent on
	// the wire — for engines running on private executors, so pre-serve
	// recorded output is unchanged.
	Tenant string `json:"tenant,omitempty"`
	// ExecQueueDepth, ExecSharedBatches, ExecShedTasks, and
	// ExecSLOViolations mirror the shared executor pool's per-tenant
	// counters as of this frame: the batch backlog left past the frame's
	// epoch, the cumulative batches shared with other tenants, the
	// cumulative tasks dropped by pool admission control, and the
	// cumulative epochs priced over this tenant's SLO. All zero — and
	// absent on the wire — without a serve executor.
	ExecQueueDepth    int `json:"exec_queue_depth,omitempty"`
	ExecSharedBatches int `json:"exec_shared_batches,omitempty"`
	ExecShedTasks     int `json:"exec_shed_tasks,omitempty"`
	ExecSLOViolations int `json:"exec_slo_violations,omitempty"`
	// FrameLatency is the frame's modelled system latency: the slowest
	// camera this frame (pipeline/node), or the assignment's scheduled
	// system latency L = max_i L_i (scheduler).
	FrameLatency time.Duration `json:"frame_latency_ns"`
	// RoundLatency is the measured wall-clock cost of the scheduling
	// round — association plus central BALB (scheduler source only).
	// This is the one non-modelled field; it varies host to host.
	RoundLatency time.Duration `json:"round_latency_ns,omitempty"`
	// Objects is the number of associated object groups the round
	// scheduled (scheduler source only).
	Objects int `json:"objects,omitempty"`
	// Partial marks a scheduling round completed without reports from
	// every roster camera — round timeout, lease expiry, disconnect, or
	// a camera that never joined (scheduler source only).
	Partial bool `json:"partial,omitempty"`
	// Cameras holds the per-camera breakdown, ascending camera index.
	Cameras []CameraSnapshot `json:"cameras"`
}

// Sink consumes a stream of snapshots. Implementations must tolerate
// concurrent RecordFrame calls: a single sink may be attached to several
// concurrent pipeline runs. RecordFrame must not block on slow consumers
// — a sink that cannot keep up drops rather than stalls the emitter.
type Sink interface {
	// RecordFrame observes one snapshot. It must be cheap and
	// non-blocking; it must not retain snap.Cameras past the call unless
	// it copies it (emitters hand over a fresh slice per call, so
	// retaining is in fact safe for the emitters in this repository, but
	// sinks should not rely on callers guaranteeing that).
	RecordFrame(snap Snapshot)
	// Flush persists anything buffered and reports the first write error
	// encountered since the previous Flush.
	Flush() error
}

// NopSink discards every snapshot. It is the zero cost default: emitters
// may hold one instead of nil-checking.
type NopSink struct{}

// RecordFrame discards snap.
func (NopSink) RecordFrame(Snapshot) {}

// Flush reports no error.
func (NopSink) Flush() error { return nil }

// ChannelSink forwards periodic snapshots over a channel for a live
// consumer (a dashboard goroutine, a test). Sends never block: when the
// buffer is full the snapshot is dropped and counted, so a stalled
// consumer cannot stall the pipeline.
type ChannelSink struct {
	every   int
	ch      chan Snapshot
	seen    atomic.Int64
	dropped atomic.Int64
	once    sync.Once
}

// NewChannelSink builds a sink that forwards every every-th snapshot
// (every <= 1 forwards all) through a channel with the given buffer
// (buffer <= 0 defaults to 16).
func NewChannelSink(every, buffer int) *ChannelSink {
	if every < 1 {
		every = 1
	}
	if buffer <= 0 {
		buffer = 16
	}
	return &ChannelSink{every: every, ch: make(chan Snapshot, buffer)}
}

// RecordFrame forwards snap, its camera rows copied, if it falls on the
// sink's period and the buffer has room; otherwise it is dropped (and
// counted, for periods that matched).
func (s *ChannelSink) RecordFrame(snap Snapshot) {
	n := s.seen.Add(1)
	if (n-1)%int64(s.every) != 0 {
		return
	}
	snap.Cameras = slices.Clone(snap.Cameras)
	select {
	case s.ch <- snap:
	default:
		s.dropped.Add(1)
	}
}

// Flush reports no error; channel sends are synchronous or dropped.
func (s *ChannelSink) Flush() error { return nil }

// Snapshots is the consumer side of the sink.
func (s *ChannelSink) Snapshots() <-chan Snapshot { return s.ch }

// Dropped returns how many period-matching snapshots were discarded
// because the buffer was full.
func (s *ChannelSink) Dropped() int64 { return s.dropped.Load() }

// Close closes the channel, signalling the consumer that no more
// snapshots will arrive. The emitter must have stopped calling
// RecordFrame first (the sink lifecycle, docs/OBSERVABILITY.md).
func (s *ChannelSink) Close() { s.once.Do(func() { close(s.ch) }) }

// JSONLSink appends snapshots to a writer as JSON Lines — one snapshot
// object per line, the schema of docs/OBSERVABILITY.md. Writes are
// buffered; Flush (or Close) persists them. Write errors are sticky:
// after the first failure subsequent snapshots are discarded and the
// error is reported by the next Flush.
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder // writes into bw for the sink's lifetime
	// snap is the snapshot being encoded: RecordFrame copies its argument
	// here and zeroes it after the call, so encoding boxes nothing and
	// the sink keeps no Cameras slice.
	snap Snapshot
	c    io.Closer
	err  error
}

// NewJSONLSink wraps an open writer. The caller keeps ownership of the
// writer; Close only flushes.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
}

// OpenJSONL opens (appending, creating if needed) a snapshot log file.
// The returned sink owns the file; Close flushes and closes it.
func OpenJSONL(path string) (*JSONLSink, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("metrics: open jsonl: %w", err)
	}
	s := NewJSONLSink(f)
	s.c = f
	return s, nil
}

// RecordFrame appends one JSON line.
func (s *JSONLSink) RecordFrame(snap Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.snap = snap
	s.err = s.enc.Encode(&s.snap)
	s.snap = Snapshot{}
}

// Flush writes buffered lines through and returns the sticky error, if
// any.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Close flushes and, when the sink owns its file (OpenJSONL), closes it.
func (s *JSONLSink) Close() error {
	err := s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c != nil {
		if cerr := s.c.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.c = nil
	}
	return err
}

// Multi fans every snapshot out to all given sinks (nils are skipped).
// Flush flushes all and returns the first error.
func Multi(sinks ...Sink) Sink {
	kept := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		return NopSink{}
	}
	if len(kept) == 1 {
		return kept[0]
	}
	return kept
}

type multiSink []Sink

func (m multiSink) RecordFrame(snap Snapshot) {
	for _, s := range m {
		s.RecordFrame(snap)
	}
}

func (m multiSink) Flush() error {
	var first error
	for _, s := range m {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
