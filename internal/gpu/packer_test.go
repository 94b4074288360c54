package gpu

import (
	"testing"

	"mvs/internal/profile"
)

// TestPackerMatchesFormBatches feeds a mixed-size task list through a
// Packer and requires the same per-size batch count and fill levels
// FormBatches produces — the streaming packing is the same packing,
// only the inter-size emission order differs.
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
	for _, task := range tasks {
		sealed, full, err := pk.Add(task)
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		if full {
			got = append(got, sealed)
		}
	}
	got = append(got, pk.Flush()...)
	if again := pk.Flush(); len(again) != 0 {
		t.Errorf("%d batches still open after Flush", len(again))
	}

	count := func(batches []Batch) (perSize map[int][]int, total int) {
		perSize = map[int][]int{}
		for _, b := range batches {
			perSize[b.Size] = append(perSize[b.Size], len(b.Tasks))
			total += len(b.Tasks)
		}
		return perSize, total
	}
	wantSizes, wantTotal := count(want)
	gotSizes, gotTotal := count(got)
	if gotTotal != wantTotal || gotTotal != len(tasks) {
		t.Fatalf("packed %d tasks, FormBatches %d, fed %d", gotTotal, wantTotal, len(tasks))
	}
	for size, wantFills := range wantSizes {
		gotFills := gotSizes[size]
		if len(gotFills) != len(wantFills) {
			t.Errorf("size %d: %d batches, want %d", size, len(gotFills), len(wantFills))
			continue
		}
		// Both pack greedily in arrival order, so fill levels match
		// batch for batch within a size.
		for i := range wantFills {
			if gotFills[i] != wantFills[i] {
				t.Errorf("size %d batch %d: fill %d, want %d", size, i, gotFills[i], wantFills[i])
			}
		}
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
