package gpu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mvs/internal/profile"
)

func xavier() *profile.Profile { return profile.Derived(profile.JetsonXavier) }
func nano() *profile.Profile   { return profile.Derived(profile.JetsonNano) }

func makeTasks(sizes ...int) []Task {
	tasks := make([]Task, len(sizes))
	for i, s := range sizes {
		tasks[i] = Task{ObjectID: i, Size: s}
	}
	return tasks
}

func TestFormBatchesGroupsBySize(t *testing.T) {
	// Xavier: limit(64)=16, limit(512)=2.
	tasks := makeTasks(64, 512, 64, 512, 512)
	batches, err := FormBatches(tasks, xavier())
	if err != nil {
		t.Fatal(err)
	}
	// 64s fit in one batch; 512s need ceil(3/2)=2 batches.
	if len(batches) != 3 {
		t.Fatalf("batches = %d: %+v", len(batches), batches)
	}
	if batches[0].Size != 64 || len(batches[0].Tasks) != 2 {
		t.Fatalf("first batch = %+v", batches[0])
	}
	if batches[1].Size != 512 || len(batches[1].Tasks) != 2 {
		t.Fatalf("second batch = %+v", batches[1])
	}
	if batches[2].Size != 512 || len(batches[2].Tasks) != 1 {
		t.Fatalf("third batch = %+v", batches[2])
	}
}

func TestFormBatchesRespectsLimit(t *testing.T) {
	prof := nano() // limit(64)=4
	sizes := make([]int, 10)
	for i := range sizes {
		sizes[i] = 64
	}
	batches, err := FormBatches(makeTasks(sizes...), prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 3 { // ceil(10/4)
		t.Fatalf("batches = %d", len(batches))
	}
	for _, b := range batches {
		if len(b.Tasks) > 4 {
			t.Fatalf("batch over limit: %d", len(b.Tasks))
		}
	}
}

func TestFormBatchesEmptyAndUnknownSize(t *testing.T) {
	batches, err := FormBatches(nil, xavier())
	if err != nil || len(batches) != 0 {
		t.Fatalf("empty = %v, %v", batches, err)
	}
	if _, err := FormBatches(makeTasks(100), xavier()); err == nil {
		t.Fatal("unknown size accepted")
	}
}

func TestFormBatchesPreservesAllTasks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40)
		std := []int{64, 128, 256, 512}
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{ObjectID: i, Size: std[rng.Intn(4)]}
		}
		batches, err := FormBatches(tasks, nano())
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, b := range batches {
			limit, _ := nano().BatchLimitFor(b.Size)
			if len(b.Tasks) == 0 || len(b.Tasks) > limit {
				return false
			}
			for _, task := range b.Tasks {
				if task.Size != b.Size || seen[task.ObjectID] {
					return false
				}
				seen[task.ObjectID] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExecutorRunFrame(t *testing.T) {
	ex, err := NewExecutor(xavier())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.RunFrame(makeTasks(64, 64, 128))
	if err != nil {
		t.Fatal(err)
	}
	if res.Images != 3 || len(res.Batches) != 2 {
		t.Fatalf("res = %+v", res)
	}
	if res.Latency <= 0 {
		t.Fatalf("latency = %v", res.Latency)
	}
	st := ex.Stats()
	if st.Frames != 1 || st.Images != 3 || st.Batches != 2 || st.BusyTime != res.Latency {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExecutorFullFrame(t *testing.T) {
	ex, err := NewExecutor(nano())
	if err != nil {
		t.Fatal(err)
	}
	lat := ex.runFullFrame()
	if lat != profile.TrueFullFrameLatency(profile.JetsonNano) {
		t.Fatalf("lat = %v", lat)
	}
	if ex.Stats().FullFrames != 1 {
		t.Fatalf("stats = %+v", ex.Stats())
	}
}

// TestExecutorPrice holds the one pricing of a camera-frame to its
// parts: a full frame costs a latency only; partial tasks cost what
// RunFrame reports on a fresh executor, plus the batches' mean fill; an
// unprofiled size is an error.
func TestExecutorPrice(t *testing.T) {
	prof := xavier()
	lim64, err := prof.BatchLimitFor(64)
	if err != nil {
		t.Fatal(err)
	}
	lim128, err := prof.BatchLimitFor(128)
	if err != nil {
		t.Fatal(err)
	}
	many := make([]int, lim64+1)
	for i := range many {
		many[i] = 64
	}
	for _, tc := range []struct {
		name     string
		full     bool
		tasks    []Task
		wantFill float64
		wantErr  bool
	}{
		{name: "full frame", full: true, tasks: makeTasks(64, 128)},
		{name: "no tasks", tasks: nil},
		{name: "two sizes", tasks: makeTasks(64, 64, 128),
			wantFill: (2/float64(lim64) + 1/float64(lim128)) / 2},
		{name: "over the limit", tasks: makeTasks(many...),
			wantFill: (1 + 1/float64(lim64)) / 2},
		{name: "unprofiled size", tasks: makeTasks(64, 100), wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex, err := NewExecutor(prof)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ex.Price(tc.full, tc.tasks)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("priced %+v", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var want Cost
			if tc.full {
				want.Latency = profile.TrueFullFrameLatency(prof.Class)
			} else {
				ref, err := NewExecutor(prof)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ref.RunFrame(tc.tasks)
				if err != nil {
					t.Fatal(err)
				}
				want = Cost{Latency: res.Latency, Batches: len(res.Batches), Images: res.Images}
			}
			if math.Abs(got.Occupancy-tc.wantFill) > 1e-12 {
				t.Fatalf("occupancy %v, want %v", got.Occupancy, tc.wantFill)
			}
			got.Occupancy = 0
			if got != want {
				t.Fatalf("cost %+v, want %+v", got, want)
			}
		})
	}
}

func TestExecutorErrors(t *testing.T) {
	if _, err := NewExecutor(nil); err == nil {
		t.Fatal("nil profile accepted")
	}
	bad := xavier()
	bad.FullFrame = 0
	if _, err := NewExecutor(bad); err == nil {
		t.Fatal("invalid profile accepted")
	}
	ex, err := NewExecutor(xavier())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.RunFrame(makeTasks(99)); err == nil {
		t.Fatal("unknown size accepted")
	}
}

func TestBatchingBeatsSerialEndToEnd(t *testing.T) {
	// The core speedup mechanism: running 8 size-64 regions on a Xavier
	// batched must be far cheaper than 8 single-image frames.
	ex, err := NewExecutor(xavier())
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, 8)
	for i := range sizes {
		sizes[i] = 64
	}
	res, err := ex.RunFrame(makeTasks(sizes...))
	if err != nil {
		t.Fatal(err)
	}
	var serial time.Duration
	for i := 0; i < 8; i++ {
		serial += profile.TrueBatchLatency(profile.JetsonXavier, 64, 1)
	}
	if res.Latency*2 >= serial {
		t.Fatalf("batched %v not ≥2x cheaper than serial %v", res.Latency, serial)
	}
}

// TestRunFrameReusesItsBuffers is the budget (at most one allocation a
// frame; none once the buffers have grown), checks that reuse does not
// change what a frame reports, and pins what stays independent: the
// caller's task list is never written, and FormBatches still hands out
// storage of its own.
func TestRunFrameReusesItsBuffers(t *testing.T) {
	prof := xavier()
	ex, err := NewExecutor(prof)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	std := []int{64, 128, 256, 512}
	frames := make([][]Task, 20)
	for f := range frames {
		frames[f] = make([]Task, 1+rng.Intn(40))
		for i := range frames[f] {
			frames[f][i] = Task{ObjectID: i, Size: std[rng.Intn(4)]}
		}
	}
	for f, tasks := range frames {
		before := append([]Task(nil), tasks...)
		res, err := ex.RunFrame(tasks)
		if err != nil {
			t.Fatal(err)
		}
		want, err := FormBatches(tasks, prof)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Batches) != len(want) {
			t.Fatalf("frame %d: %d batches, FormBatches %d", f, len(res.Batches), len(want))
		}
		for b := range want {
			if res.Batches[b].Size != want[b].Size || len(res.Batches[b].Tasks) != len(want[b].Tasks) {
				t.Fatalf("frame %d batch %d: %+v, want %+v", f, b, res.Batches[b], want[b])
			}
			for k := range want[b].Tasks {
				if res.Batches[b].Tasks[k] != want[b].Tasks[k] {
					t.Fatalf("frame %d batch %d task %d: %+v, want %+v", f, b, k, res.Batches[b].Tasks[k], want[b].Tasks[k])
				}
			}
		}
		for i := range tasks {
			if tasks[i] != before[i] {
				t.Fatalf("frame %d: RunFrame wrote to the caller's tasks", f)
			}
		}
		// FormBatches' result must survive the executor's next frame.
		if _, err := ex.RunFrame(frames[(f+1)%len(frames)]); err != nil {
			t.Fatal(err)
		}
		again, _ := FormBatches(tasks, prof)
		for b := range want {
			for k := range want[b].Tasks {
				if want[b].Tasks[k] != again[b].Tasks[k] {
					t.Fatalf("frame %d: FormBatches result changed under a later RunFrame", f)
				}
			}
		}
	}
	big := frames[0]
	for _, tasks := range frames {
		if len(tasks) > len(big) {
			big = tasks
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ex.RunFrame(big); err != nil {
			panic(err)
		}
	}); n > 1 {
		t.Fatalf("RunFrame: %v allocs per frame, want <= 1", n)
	}
}
