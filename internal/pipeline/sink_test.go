package pipeline

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/metrics"
)

// TestSinkDeterministic is the observability half of the determinism
// contract: attaching any sink, at any worker count, leaves the
// modelled report bit-identical to a sink-less sequential run. The
// JSONL sink also exercises snapshot serialization under the
// concurrent fan-out.
func TestSinkDeterministic(t *testing.T) {
	e := getEnv(t)
	base, err := Run(e.test, e.profiles, e.model, Config{Sched: Sched{Mode: BALB, Workers: 1}, Sim: Sim{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	sinks := map[string]func() metrics.Sink{
		"nop":     func() metrics.Sink { return metrics.NopSink{} },
		"channel": func() metrics.Sink { return metrics.NewChannelSink(1, 4) }, // tiny buffer: drops must not matter
		"jsonl": func() metrics.Sink {
			s, err := metrics.OpenJSONL(t.TempDir() + "/snaps.jsonl")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		},
	}
	for name, mk := range sinks {
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			rep, err := Run(e.test, e.profiles, e.model, Config{
				Sched: Sched{Mode: BALB, Workers: workers},
				Sim:   Sim{Seed: 5}, Obs: Obs{Sink: mk()},
			})
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(base.Modeled(), rep.Modeled()) {
				t.Errorf("%s/workers=%d diverged from sink-less run:\nbase: %+v\ngot:  %+v",
					name, workers, base.Modeled(), rep.Modeled())
			}
		}
	}
}

// TestSinkSnapshotStream checks the shape of the pipeline's snapshot
// stream: one snapshot per frame, gap-free ascending Seq, cameras in
// fixed index order, and cumulative counters that agree with the final
// report.
func TestSinkSnapshotStream(t *testing.T) {
	e := getEnv(t)
	frames := len(e.test.Frames)
	sink := metrics.NewChannelSink(1, frames+1)
	rep, err := Run(e.test, e.profiles, e.model, Config{Sched: Sched{Mode: BALB}, Sim: Sim{Seed: 5}, Obs: Obs{Sink: sink}})
	if err != nil {
		t.Fatal(err)
	}
	sink.Close()
	if sink.Dropped() != 0 {
		t.Fatalf("dropped %d snapshots with a full-size buffer", sink.Dropped())
	}

	var snaps []metrics.Snapshot
	for snap := range sink.Snapshots() {
		snaps = append(snaps, snap)
	}
	if len(snaps) != frames {
		t.Fatalf("snapshots = %d, want one per frame (%d)", len(snaps), frames)
	}
	var maxLatency int64
	for i, snap := range snaps {
		if snap.Seq != i || snap.Frame != i {
			t.Fatalf("snapshot %d: seq=%d frame=%d", i, snap.Seq, snap.Frame)
		}
		if snap.Source != metrics.SourcePipeline {
			t.Fatalf("snapshot %d: source = %q", i, snap.Source)
		}
		if snap.Label != "BALB" {
			t.Fatalf("snapshot %d: label = %q, want mode name default", i, snap.Label)
		}
		if len(snap.Cameras) != len(e.profiles) {
			t.Fatalf("snapshot %d: %d cameras, want %d", i, len(snap.Cameras), len(e.profiles))
		}
		for ci, cs := range snap.Cameras {
			if cs.Camera != ci {
				t.Fatalf("snapshot %d: cameras out of order: %d at index %d", i, cs.Camera, ci)
			}
			if cs.Latency > snap.FrameLatency {
				t.Fatalf("snapshot %d: camera %d latency %v exceeds frame latency %v",
					i, ci, cs.Latency, snap.FrameLatency)
			}
		}
		if int64(snap.FrameLatency) > maxLatency {
			maxLatency = int64(snap.FrameLatency)
		}
	}
	last := snaps[len(snaps)-1]
	if last.TP != rep.TP || last.FN != rep.FN {
		t.Fatalf("final snapshot counters tp=%d fn=%d, report tp=%d fn=%d",
			last.TP, last.FN, rep.TP, rep.FN)
	}
	if last.Recall != rep.Recall {
		t.Fatalf("final snapshot recall %v != report recall %v", last.Recall, rep.Recall)
	}
	if maxLatency != int64(rep.MaxSlowest) {
		t.Fatalf("max snapshot latency %d != report MaxSlowest %d", maxLatency, int64(rep.MaxSlowest))
	}
}

// TestSinkLabelOverride checks Obs.Label replaces the mode-name
// default (the experiments layer relies on this to tag fan-out runs).
func TestSinkLabelOverride(t *testing.T) {
	e := getEnv(t)
	sink := metrics.NewChannelSink(len(e.test.Frames), 4) // just the first snapshot
	_, err := Run(e.test, e.profiles, e.model, Config{
		Sched: Sched{Mode: BALB}, Sim: Sim{Seed: 5},
		Obs: Obs{Sink: sink, Label: "modes/BALB"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sink.Close()
	snap, ok := <-sink.Snapshots()
	if !ok {
		t.Fatal("no snapshot delivered")
	}
	if snap.Label != "modes/BALB" {
		t.Fatalf("label = %q", snap.Label)
	}
}

// countingMeter is an IngestMeter whose every reading differs: the n-th
// call reports n parts ingested and queued.
type countingMeter struct{ calls int }

func (m *countingMeter) Counters() IngestCounters {
	m.calls++
	return IngestCounters{Ingested: m.calls, QueueDepth: m.calls}
}

// TestIngestCountersReadOncePerFrame: with a controller and a sink both
// attached, the engine reads the live counters once a frame, and the
// snapshot carries the reading the controller was given. Producers keep
// offering between two reads, so a second one could report another
// depth than the one the controller acted on.
func TestIngestCountersReadOncePerFrame(t *testing.T) {
	e := getEnv(t)
	frames := len(e.test.Frames)
	sink := metrics.NewChannelSink(1, frames+1)
	meter := &countingMeter{}
	cfg := NewConfig(BALB, 5)
	cfg.Adapt.Policy = adapt.Policy{SLO: time.Hour}
	cfg.Obs.Sink, cfg.Obs.Ingest = sink, meter
	if _, err := Run(e.test, e.profiles, e.model, cfg); err != nil {
		t.Fatal(err)
	}
	sink.Close()
	if meter.calls != frames {
		t.Fatalf("%d counter reads over %d frames, want one a frame", meter.calls, frames)
	}
	i := 0
	for snap := range sink.Snapshots() {
		i++
		if snap.QueueDepth != i || snap.IngestedFrames != i {
			t.Fatalf("snapshot %d carries queue depth %d, ingested %d; want the frame's reading %d",
				i-1, snap.QueueDepth, snap.IngestedFrames, i)
		}
	}
	if i != frames {
		t.Fatalf("%d snapshots, want %d", i, frames)
	}
}
