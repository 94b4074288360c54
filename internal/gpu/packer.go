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
// packing (same batches per size, task for task; only the inter-size
// emission order differs).
//
// A Packer keeps one open group per profile size and reuses its storage
// across batches, so a warm Packer allocates nothing. The batches it
// returns are lent: valid until the next Add or Flush. A caller that
// needs one longer copies it.
//
// A Packer is not safe for concurrent use; the pool serializes Add
// calls under its own lock.
type Packer struct {
	prof    *profile.Profile
	limits  []int    // batch limit per position in prof.Sizes
	open    [][]Task // open group per position in prof.Sizes
	flushed []Batch  // Flush's result
}

// NewPacker builds a packer over a validated profile.
func NewPacker(prof *profile.Profile) (*Packer, error) {
	if prof == nil {
		return nil, fmt.Errorf("gpu: nil profile")
	}
	if err := prof.Validate(); err != nil {
		return nil, fmt.Errorf("gpu: %w", err)
	}
	p := &Packer{prof: prof, limits: make([]int, len(prof.Sizes)), open: make([][]Task, len(prof.Sizes))}
	for i, s := range prof.Sizes {
		p.limits[i] = prof.BatchLimit[s]
	}
	return p, nil
}

// Add appends one task to its size group and, when the group reaches
// the device's batch limit, seals and returns the full batch (ok =
// true), lent until the next Add or Flush. Tasks whose size is not one
// of the profile's sizes are rejected, mirroring FormBatches.
func (p *Packer) Add(t Task) (Batch, bool, error) {
	i, found := slices.BinarySearch(p.prof.Sizes, t.Size)
	if !found {
		_, err := p.prof.BatchLimitFor(t.Size)
		if err == nil {
			err = fmt.Errorf("size %d is not one of the profile's sizes", t.Size)
		}
		return Batch{}, false, fmt.Errorf("gpu: task for object %d: %w", t.ObjectID, err)
	}
	group := append(p.open[i], t)
	if len(group) >= p.limits[i] {
		p.open[i] = group[:0]
		return Batch{Size: t.Size, Tasks: group}, true, nil
	}
	p.open[i] = group
	return Batch{}, false, nil
}

// Flush seals every non-empty size group into a partial batch, in
// ascending size order (the FormBatches tail order), and resets the
// packer for the next round. The batches are lent until the next Add or
// Flush.
func (p *Packer) Flush() []Batch {
	p.flushed = p.flushed[:0]
	for i, group := range p.open {
		if len(group) > 0 {
			p.flushed = append(p.flushed, Batch{Size: p.prof.Sizes[i], Tasks: group})
			p.open[i] = group[:0]
		}
	}
	return p.flushed
}
