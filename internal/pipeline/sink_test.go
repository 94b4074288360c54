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
