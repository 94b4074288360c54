package node

import (
	"testing"

	"mvs/internal/metrics"
)

// TestNodeSinkSnapshots runs the standalone loop with a sink attached
// and checks the per-frame snapshot stream: one snapshot per processed
// frame, gap-free Seq, SourceNode with the camera label, and a single
// per-camera entry whose latency matches the frame's.
func TestNodeSinkSnapshots(t *testing.T) {
	world := twoCamWorld(3)
	trace, err := world.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	sink := metrics.NewChannelSink(1, len(trace.Frames)+1)
	cfg := baseConfig(0)
	cfg.Sink = sink
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := &fakeScheduler{}
	for fi := range trace.Frames {
		if err := sched.step(rt, fi, trace.Frames[fi].PerCamera[0]); err != nil {
			t.Fatal(err)
		}
	}
	sink.Close()
	if sink.Dropped() != 0 {
		t.Fatalf("dropped %d snapshots with a full-size buffer", sink.Dropped())
	}

	var snaps []metrics.Snapshot
	for snap := range sink.Snapshots() {
		snaps = append(snaps, snap)
	}
	if len(snaps) != len(trace.Frames) {
		t.Fatalf("snapshots = %d, want %d", len(snaps), len(trace.Frames))
	}
	for i, snap := range snaps {
		if snap.Seq != i || snap.Frame != i {
			t.Fatalf("snapshot %d: seq=%d frame=%d", i, snap.Seq, snap.Frame)
		}
		if snap.Source != metrics.SourceNode {
			t.Fatalf("snapshot %d: source = %q", i, snap.Source)
		}
		if snap.Label != "camera0" {
			t.Fatalf("snapshot %d: label = %q", i, snap.Label)
		}
		if len(snap.Cameras) != 1 || snap.Cameras[0].Camera != 0 {
			t.Fatalf("snapshot %d: cameras = %+v", i, snap.Cameras)
		}
		cs := snap.Cameras[0]
		if cs.Latency != snap.FrameLatency {
			t.Fatalf("snapshot %d: camera latency %v != frame latency %v", i, cs.Latency, snap.FrameLatency)
		}
		if i%10 == 0 && cs.Batches != 0 {
			t.Fatalf("key frame %d launched %d partial batches", i, cs.Batches)
		}
		if cs.BatchOccupancy < 0 || cs.BatchOccupancy > 1 {
			t.Fatalf("snapshot %d: occupancy = %v", i, cs.BatchOccupancy)
		}
	}
	// Cumulative detected counter ends at the node's final stat.
	if got, want := snaps[len(snaps)-1].Detected, rt.Stats().DetectedObjects; got != want {
		t.Fatalf("final detected = %d, stats say %d", got, want)
	}
}
