package gpu

import (
	"fmt"
	"slices"

	"mvs/internal/profile"
)

// Packer is the streaming form of FormBatches: tasks are added one at a
// time and a batch is sealed the moment a size group reaches the
// device's batch limit, in arrival order rather than size order. It
// exists for schedulers that interleave tasks from several independent
// producers — the multi-tenant serving pool (internal/serve) feeds
// tenants' tasks through one Packer in fair-queue order, so a batch
// fills with whichever tenant's work arrives next — while a single
// producer feeding all its tasks up front gets exactly the FormBatches
// packing (same per-size batch count and fill levels; only the
// inter-size emission order differs).
//
// A Packer is not safe for concurrent use; the pool serializes Add
// calls under its own lock.
type Packer struct {
	prof *profile.Profile
	open map[int][]Task
}

// NewPacker builds a packer over a validated profile.
func NewPacker(prof *profile.Profile) (*Packer, error) {
	if prof == nil {
		return nil, fmt.Errorf("gpu: nil profile")
	}
	if err := prof.Validate(); err != nil {
		return nil, fmt.Errorf("gpu: %w", err)
	}
	return &Packer{prof: prof, open: make(map[int][]Task)}, nil
}

// Add appends one task to its size group and, when the group reaches
// the device's batch limit, seals and returns the full batch (ok =
// true). Tasks with unprofiled sizes are rejected, mirroring
// FormBatches.
func (p *Packer) Add(t Task) (Batch, bool, error) {
	limit, err := p.prof.BatchLimitFor(t.Size)
	if err != nil {
		return Batch{}, false, fmt.Errorf("gpu: task for object %d: %w", t.ObjectID, err)
	}
	group := append(p.open[t.Size], t)
	if len(group) >= limit {
		delete(p.open, t.Size)
		return Batch{Size: t.Size, Tasks: group}, true, nil
	}
	p.open[t.Size] = group
	return Batch{}, false, nil
}

// Flush seals every non-empty size group into a partial batch, in
// ascending size order (the FormBatches tail order), and resets the
// packer for the next round.
func (p *Packer) Flush() []Batch {
	if len(p.open) == 0 {
		return nil
	}
	sizes := make([]int, 0, len(p.open))
	for s := range p.open {
		sizes = append(sizes, s)
	}
	slices.Sort(sizes)
	batches := make([]Batch, 0, len(sizes))
	for _, s := range sizes {
		batches = append(batches, Batch{Size: s, Tasks: p.open[s]})
	}
	p.open = make(map[int][]Task)
	return batches
}
