package pipeline

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mvs/internal/metrics"
)

// chaosModel builds the shared 10%-outage fault schedule for the test
// trace; cached because the environment is too.
var (
	chaosOnce  sync.Once
	chaosFault *FaultSchedule
)

func chaosEnv(t *testing.T) (*testEnv, *FaultSchedule) {
	t.Helper()
	e := getEnv(t)
	chaosOnce.Do(func() {
		m, err := GenerateFaults(FaultSpec{
			Seed: 23, Rate: 0.10, MeanOutage: 20, BootDelay: 2,
		}, len(e.test.Cameras), len(e.test.Frames))
		if err != nil {
			t.Fatal(err)
		}
		chaosFault = m
	})
	if chaosFault == nil {
		t.Fatal("fault schedule failed to initialize")
	}
	return e, chaosFault
}

// TestChaosFailoverBeatsNoFailover is the ISSUE acceptance criterion:
// at a 10% outage rate, BALB with health tracking + failover keeps
// recall strictly above the same schedule with the feature off.
func TestChaosFailoverBeatsNoFailover(t *testing.T) {
	e, faults := chaosEnv(t)
	run := func(healthK int) *Report {
		rep, err := Run(e.test, e.profiles, e.model, Config{
			Sched: Sched{Mode: BALB}, Sim: Sim{Seed: 5},
			Fault: Fault{CamFaults: faults, HealthK: healthK},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	fo := run(3)
	off := run(0)
	if fo.OutageFrames == 0 || fo.OutageFrames != off.OutageFrames {
		t.Fatalf("outage frames: fo=%d off=%d (same schedule, must match and be > 0)",
			fo.OutageFrames, off.OutageFrames)
	}
	if fo.Recall <= off.Recall {
		t.Fatalf("failover recall %.4f not above no-failover %.4f", fo.Recall, off.Recall)
	}
	if fo.Reassignments == 0 {
		t.Fatal("failover run performed no reassignments")
	}
	if off.Reassignments != 0 || off.OrphanedObjects != 0 {
		t.Fatalf("no-failover run counted failovers: reassigned=%d orphaned=%d",
			off.Reassignments, off.OrphanedObjects)
	}
	t.Logf("recall: failover %.4f vs off %.4f; outage=%d reassigned=%d orphaned=%d",
		fo.Recall, off.Recall, fo.OutageFrames, fo.Reassignments, fo.OrphanedObjects)
}

// TestChaosFaultFreeBitIdentical pins the zero-overhead guarantee: a
// nil CamFaults run and a run with an all-clear fault schedule produce
// bit-identical modelled reports, and neither emits any fault counter
// on the JSONL wire.
func TestChaosFaultFreeBitIdentical(t *testing.T) {
	e := getEnv(t)
	clear, err := GenerateFaults(FaultSpec{Seed: 1},
		len(e.test.Cameras), len(e.test.Frames))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := metrics.NewJSONLSink(&buf)
	base, err := Run(e.test, e.profiles, e.model, NewConfig(BALB, 5))
	if err != nil {
		t.Fatal(err)
	}
	withModel, err := Run(e.test, e.profiles, e.model, Config{
		Sched: Sched{Mode: BALB}, Sim: Sim{Seed: 5},
		Fault: Fault{CamFaults: clear, HealthK: 3}, Obs: Obs{Sink: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Modeled(), withModel.Modeled()) {
		t.Fatalf("all-clear fault schedule perturbed the run:\nbase %+v\nwith %+v",
			base.Modeled(), withModel.Modeled())
	}
	for _, key := range []string{"outage_frames", "orphaned_objects", "reassignments"} {
		if strings.Contains(buf.String(), key) {
			t.Fatalf("fault-free run leaked %q on the wire", key)
		}
	}
}

// TestChaosDeterministicAcrossWorkers extends the determinism contract
// to faulty runs: the same fault schedule yields bit-identical modelled
// reports at every worker count.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	e, faults := chaosEnv(t)
	var base *Report
	for _, workers := range []int{1, 2, 4} {
		rep, err := Run(e.test, e.profiles, e.model, Config{
			Sched: Sched{Mode: BALB, Workers: workers}, Sim: Sim{Seed: 5},
			Fault: Fault{CamFaults: faults, HealthK: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = rep
			continue
		}
		got, want := rep.Modeled(), base.Modeled()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged:\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestChaosSnapshotCounters checks the streamed counters match the
// report totals on the final frame.
func TestChaosSnapshotCounters(t *testing.T) {
	e, faults := chaosEnv(t)
	sink := metrics.NewChannelSink(1, len(e.test.Frames))
	rep, err := Run(e.test, e.profiles, e.model, Config{
		Sched: Sched{Mode: BALB}, Sim: Sim{Seed: 5},
		Fault: Fault{CamFaults: faults, HealthK: 3}, Obs: Obs{Sink: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	sink.Close()
	var last metrics.Snapshot
	for snap := range sink.Snapshots() {
		last = snap
	}
	if last.OutageFrames != rep.OutageFrames ||
		last.OrphanedObjects != rep.OrphanedObjects ||
		last.Reassignments != rep.Reassignments {
		t.Fatalf("final snapshot counters (%d,%d,%d) != report (%d,%d,%d)",
			last.OutageFrames, last.OrphanedObjects, last.Reassignments,
			rep.OutageFrames, rep.OrphanedObjects, rep.Reassignments)
	}
}

// TestChaosModelValidation covers the dimension checks.
func TestChaosModelValidation(t *testing.T) {
	e := getEnv(t)
	short, err := GenerateFaults(FaultSpec{Seed: 1}, len(e.test.Cameras), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(e.test, e.profiles, e.model, Config{Sched: Sched{Mode: BALB}, Sim: Sim{Seed: 5}, Fault: Fault{CamFaults: short}}); err == nil {
		t.Fatal("accepted a fault schedule shorter than the trace")
	}
	wrongCams, err := GenerateFaults(FaultSpec{Seed: 1}, 1, len(e.test.Frames))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(e.test, e.profiles, e.model, Config{Sched: Sched{Mode: BALB}, Sim: Sim{Seed: 5}, Fault: Fault{CamFaults: wrongCams}}); err == nil {
		t.Fatal("accepted a fault schedule with the wrong roster size")
	}
}
