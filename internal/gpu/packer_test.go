package gpu

import (
	"slices"
	"testing"

	"mvs/internal/profile"
)

// TestPackerMatchesFormBatches feeds a mixed-size task list through a
// Packer and requires the batches FormBatches produces, task for task
// within each size — the streaming packing is the same packing, only the
// inter-size emission order differs. Each batch is copied as it is
// returned, because the packer lends it only until the next Add or
// Flush: a packer that overwrote a batch still in the caller's hands
// would fail here.
func TestPackerMatchesFormBatches(t *testing.T) {
	prof := profile.Derived(profile.JetsonXavier)
	var tasks []Task
	for i := 0; i < 37; i++ {
		tasks = append(tasks, Task{ObjectID: i, Size: []int{64, 128, 256, 512}[i%4]})
	}

	want, err := FormBatches(tasks, prof)
	if err != nil {
		t.Fatalf("FormBatches: %v", err)
	}

	pk, err := NewPacker(prof)
	if err != nil {
		t.Fatalf("NewPacker: %v", err)
	}
	var got []Batch
	keep := func(b Batch) {
		got = append(got, Batch{Size: b.Size, Tasks: slices.Clone(b.Tasks)})
	}
	for _, task := range tasks {
		sealed, full, err := pk.Add(task)
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		if full {
			keep(sealed)
		}
	}
	for _, b := range pk.Flush() {
		keep(b)
	}
	if again := pk.Flush(); len(again) != 0 {
		t.Errorf("%d batches still open after Flush", len(again))
	}

	perSize := func(batches []Batch) (ids map[int][][]int, total int) {
		ids = map[int][][]int{}
		for _, b := range batches {
			var objs []int
			for _, task := range b.Tasks {
				objs = append(objs, task.ObjectID)
			}
			ids[b.Size] = append(ids[b.Size], objs)
			total += len(b.Tasks)
		}
		return ids, total
	}
	wantSizes, wantTotal := perSize(want)
	gotSizes, gotTotal := perSize(got)
	if gotTotal != wantTotal || gotTotal != len(tasks) {
		t.Fatalf("packed %d tasks, FormBatches %d, fed %d", gotTotal, wantTotal, len(tasks))
	}
	for size, wantBatches := range wantSizes {
		gotBatches := gotSizes[size]
		if len(gotBatches) != len(wantBatches) {
			t.Errorf("size %d: %d batches, want %d", size, len(gotBatches), len(wantBatches))
			continue
		}
		// Both pack greedily in arrival order, so batches match task for
		// task within a size.
		for i := range wantBatches {
			if !slices.Equal(gotBatches[i], wantBatches[i]) {
				t.Errorf("size %d batch %d: objects %v, want %v", size, i, gotBatches[i], wantBatches[i])
			}
		}
	}
}

// TestPackerReusesItsBuffers: once its groups have grown, a packer fed
// the same stream again allocates nothing, sealed and flushed batches
// included.
func TestPackerReusesItsBuffers(t *testing.T) {
	prof := profile.Derived(profile.JetsonXavier)
	pk, err := NewPacker(prof)
	if err != nil {
		t.Fatalf("NewPacker: %v", err)
	}
	var tasks []Task
	for i := 0; i < 200; i++ {
		tasks = append(tasks, Task{ObjectID: i, Size: prof.Sizes[(i*7)%len(prof.Sizes)]})
	}
	sealed := 0
	cycle := func() {
		for _, task := range tasks {
			if _, full, err := pk.Add(task); err != nil {
				t.Fatalf("Add: %v", err)
			} else if full {
				sealed++
			}
		}
		sealed += len(pk.Flush())
	}
	cycle()
	if sealed == 0 {
		t.Fatal("no batch sealed")
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("warm Add/Flush cycle allocates %.1f times, want 0", allocs)
	}
}

// TestPackerRejectsUnknownSize mirrors FormBatches' validation.
func TestPackerRejectsUnknownSize(t *testing.T) {
	pk, err := NewPacker(profile.Derived(profile.JetsonXavier))
	if err != nil {
		t.Fatalf("NewPacker: %v", err)
	}
	if _, _, err := pk.Add(Task{ObjectID: 1, Size: 100}); err == nil {
		t.Error("unprofiled size accepted")
	}
}
