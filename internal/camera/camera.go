// Package camera is the camera kernel: everything one camera of the
// BALB framework decides and does on its own, with no transport. It owns
// the camera's tracker, detector, GPU executor, cell grid, coverage
// masks, shadows and per-frame scratch, and with them these decisions:
// what a key frame, a Full-mode frame and a regular frame inspect (track
// regions plus the new-region proposals this camera is responsible
// for), which freshly spawned tracks it keeps (Ownership), when a
// shadowed object is taken over from an owner that lost it or died (the
// distributed stage's second rule, PAPER.md §1), how a track is demoted
// to a shadow, and what the frame's inspection costs on the local GPU.
//
// Both deployment shapes host it: pipeline.Engine steps one Kernel per
// camera in camera order, node.Runtime runs one behind the cluster
// protocol. The distributed stage is communication-free only because
// every camera evaluates the same rule, so the rule lives here once.
//
// Distinct kernels share nothing mutable (docs/CONCURRENCY.md §6).
package camera

import (
	"fmt"
	"time"

	"mvs/internal/core"
	"mvs/internal/flow"
	"mvs/internal/geom"
	"mvs/internal/gpu"
	"mvs/internal/metrics"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/vision"
)

// Ownership selects the rule by which a camera keeps what it newly sees
// between key frames.
type Ownership int

const (
	// OwnNone runs no distributed stage: nothing is proposed or kept
	// between key frames (the central stage alone, BALB-Cen).
	OwnNone Ownership = iota
	// OwnAll keeps everything the camera sees (BALB-Ind, and a node the
	// scheduler sent no masks).
	OwnAll
	// OwnCells keeps what falls in cells a static partition gave this
	// camera (the SP baseline), at key frames too.
	OwnCells
	// OwnMasks keeps what the latency-priority masks give this camera and
	// takes shadowed objects over when their owner loses them (BALB).
	OwnMasks
)

// Config assembles a Kernel.
type Config struct {
	// Index is the camera's fleet-wide index, the one policies and
	// coverage sets speak.
	Index int
	// Grid is the camera's cell grid over its pixel frame.
	Grid geom.Grid
	// Profile is the device profile of the camera's GPU.
	Profile *profile.Profile
	// Seed and Detector drive the simulated DNN; the camera's own noise
	// stream is derived from Seed and Index.
	Seed     int64
	Detector vision.Config
	// Own is the ownership rule. Coverage holds the static per-cell
	// coverage sets OwnMasks needs, CellOwner the per-cell owners
	// OwnCells needs; the host validates their sizes against Grid.
	Own       Ownership
	Coverage  [][]int
	CellOwner []int
}

// shadow is a camera's knowledge of an object assigned to another camera:
// its last known box here, coasting on the key-frame velocity, so the
// camera can take over tracking without communication if the object
// leaves its assigned camera's view.
type shadow struct {
	box      geom.Rect
	vel      geom.Point
	truthID  int
	assigned int
}

// Kernel is all per-camera runtime state.
type Kernel struct {
	index     int
	exec      *gpu.Executor
	det       *vision.Detector
	tracker   *flow.Tracker
	grid      geom.Grid
	own       Ownership
	coverage  [][]int
	cellOwner []int
	shadows   []shadow
	// Per-frame scratch of the frame calls, reused across frames: the
	// full-frame detections and RegularFrame's regions and tasks. Nothing
	// outside the kernel keeps a reference past the frame: the one slice
	// that is handed out — Frame.Tasks — is valid until the next frame
	// call, and a host that lets it cross a seam copies it first.
	dets                                  []vision.Detection
	regions, explained, moving, proposals []geom.Rect
	tasks                                 []gpu.Task
}

// Frame is one camera's contribution to a frame: a frame call fills the
// inspection work and the decisions' side counts, Price fills the cost.
// The host owns the record and Resets it between frames.
type Frame struct {
	// TruthIDs are the ground-truth objects detected this frame (scoring).
	TruthIDs []int
	// Sample holds the measured framework overheads of this camera-frame
	// (Table II); wall-clock, outside every modelled output.
	Sample metrics.CameraSample
	// Reassigned counts shadow promotions because the owning camera is
	// dead; Orphaned counts shadows dropped with no live covering camera.
	// Both stay zero in fault-free runs.
	Reassigned int
	Orphaned   int
	// Full marks a full-frame inspection; otherwise Tasks lists the
	// partial-region inspections in slicing order, in kernel scratch
	// that the next frame call overwrites.
	Full  bool
	Tasks []gpu.Task
	// Cost is the frame's priced inspection (gpu.Executor.Price): its
	// batch fields stay zero for a full-frame inspection.
	gpu.Cost
}

// Reset clears the record for the next frame, keeping the TruthIDs
// buffer.
func (f *Frame) Reset() { *f = Frame{TruthIDs: f.TruthIDs[:0]} }

// New builds a camera kernel.
func New(cfg Config) (*Kernel, error) {
	exec, err := gpu.NewExecutor(cfg.Profile)
	if err != nil {
		return nil, fmt.Errorf("camera %d: %w", cfg.Index, err)
	}
	tracker, err := flow.NewTracker(cfg.Grid.Frame, flow.Config{})
	if err != nil {
		return nil, fmt.Errorf("camera %d: %w", cfg.Index, err)
	}
	return &Kernel{
		index:     cfg.Index,
		exec:      exec,
		det:       vision.NewDetector(cfg.Seed+int64(cfg.Index)*101, cfg.Detector),
		tracker:   tracker,
		grid:      cfg.Grid,
		own:       cfg.Own,
		coverage:  cfg.Coverage,
		cellOwner: cfg.CellOwner,
	}, nil
}

// Tracks returns the live tracks in tracker order (the order a key-frame
// report lists them in).
func (k *Kernel) Tracks() []*flow.Track { return k.tracker.Tracks() }

// Len returns the live track count.
func (k *Kernel) Len() int { return k.tracker.Len() }

// Shadows returns the shadow count.
func (k *Kernel) Shadows() int { return len(k.shadows) }

// SetSizeCap caps the sizes future spawns, key-frame refreshes and
// new-region proposals quantize to (the degradation ladder's actuator);
// 0 restores the full set.
func (k *Kernel) SetSizeCap(capPx int) { k.tracker.SetSizeCap(capPx) }

// KeyFrame is the camera's share of a key frame: full-frame inspection,
// track refresh, and a clean slate of shadows for the central stage to
// refill.
func (k *Kernel) KeyFrame(obs []scene.Observation, out *Frame) error {
	out.Full = true
	k.dets = k.det.AppendFull(k.dets[:0], obs)
	for _, d := range k.dets {
		out.TruthIDs = append(out.TruthIDs, d.TruthID)
	}
	start := time.Now()
	if _, err := k.tracker.Update(k.dets); err != nil {
		return fmt.Errorf("camera %d: key-frame tracking: %w", k.index, err)
	}
	k.tracker.RefreshSizes()
	out.Sample.Observe(metrics.Tracking, time.Since(start))
	k.shadows = k.shadows[:0]
	if k.own == OwnCells {
		// SP has no central round to reassign tracks: the static
		// partition prunes at the key frame itself.
		for _, t := range k.tracker.Tracks() {
			if !k.keepsNew(t.Box.Center(), nil) {
				k.tracker.Remove(t.ID)
			}
		}
	}
	return nil
}

// FullFrame is the camera's share of a Full-mode regular frame.
func (k *Kernel) FullFrame(obs []scene.Observation, out *Frame) {
	out.Full = true
	k.dets = k.det.AppendFull(k.dets[:0], obs)
	for _, d := range k.dets {
		out.TruthIDs = append(out.TruthIDs, d.TruthID)
	}
}

// RegularFrame is the camera's share of a regular frame: shadow advance,
// slicing, new-region proposals, detection, tracking update, and the
// distributed-stage ownership decisions under the horizon's policy.
func (k *Kernel) RegularFrame(obs []scene.Observation, policy *core.DistributedPolicy, out *Frame) error {
	// --- Tracking: advance shadows, slice regions. ---
	trackStart := time.Now()
	alive := k.shadows[:0]
	for _, sh := range k.shadows {
		sh.box = sh.box.Translate(sh.vel)
		if k.grid.Frame.Contains(sh.box.Center()) {
			alive = append(alive, sh)
		}
	}
	k.shadows = alive

	regions, explained, tasks := k.regions[:0], k.explained[:0], k.tasks[:0]
	for _, t := range k.tracker.Tracks() {
		regions = append(regions, k.tracker.Region(t))
		tasks = append(tasks, gpu.Task{ObjectID: t.ID, Size: t.QuantSize})
		explained = append(explained, t.Predicted())
	}
	// One clock read ends the tracking stage and starts the distributed one.
	sliced := time.Now()
	out.Sample.Observe(metrics.Tracking, sliced.Sub(trackStart))

	// --- Distributed stage part 1: new-region proposals. ---
	if k.own != OwnNone {
		moving := k.moving[:0]
		for _, o := range obs {
			moving = append(moving, o.Box)
		}
		k.moving = moving
		// Motion is explained by a predicted track box or a shadow.
		for _, sh := range k.shadows {
			explained = append(explained, sh.box)
		}
		k.proposals = flow.NewRegions(k.proposals[:0], moving, explained, 0)
		for _, nr := range k.proposals {
			// The camera masks filter *before* inspection: a camera
			// never spends GPU time on new regions another camera is
			// responsible for (Fig. 8).
			if !k.keepsNew(nr.Center(), policy) {
				continue
			}
			// Quantize against the tracker's (possibly capped) size set
			// so new-region proposals degrade with the ladder too.
			q, size := geom.QuantizeRect(nr, k.grid.Frame, k.tracker.Sizes())
			regions = append(regions, q)
			tasks = append(tasks, gpu.Task{ObjectID: -1, Size: size})
		}
		out.Sample.Observe(metrics.Distributed, time.Since(sliced))
	}
	k.regions, k.explained, k.tasks = regions, explained, tasks
	out.Tasks = tasks

	dets, err := k.det.DetectRegions(regions, obs)
	if err != nil {
		return fmt.Errorf("camera %d: detect: %w", k.index, err)
	}
	for _, d := range dets {
		out.TruthIDs = append(out.TruthIDs, d.TruthID)
	}

	// --- Tracking update. ---
	trackStart = time.Now()
	created, err := k.tracker.Update(dets)
	if err != nil {
		return fmt.Errorf("camera %d: tracking: %w", k.index, err)
	}
	updated := time.Now()
	out.Sample.Observe(metrics.Tracking, updated.Sub(trackStart))

	// --- Distributed stage part 2: ownership decisions. ---
	for _, id := range created {
		if t := k.tracker.Get(id); t != nil && !k.keepsNew(t.Box.Center(), policy) {
			k.tracker.Remove(id)
		}
	}
	if k.own == OwnMasks {
		k.takeover(policy, out)
	}
	out.Sample.Observe(metrics.Distributed, time.Since(updated))
	return nil
}

// Price runs the frame's inspection work on the camera's own GPU model
// and fills the record's cost. Modelled latency is observational —
// detection and tracking consume region geometry, never the executor's
// result — so a host may equally price the same record elsewhere
// (pipeline.TenantExecutor). A partial inspection's batch formation is
// timed as the frame's Batching overhead.
func (k *Kernel) Price(out *Frame) error {
	start := time.Now()
	cost, err := k.exec.Price(out.Full, out.Tasks)
	if err != nil {
		return fmt.Errorf("camera %d: inspection: %w", k.index, err)
	}
	out.Cost = cost
	if !out.Full {
		out.Sample.Observe(metrics.Batching, time.Since(start))
	}
	return nil
}

// Snapshot is the camera's row of a frame's metrics snapshot: the
// record's priced cost and the kernel's track and shadow counts after
// the frame.
func (k *Kernel) Snapshot(f *Frame) metrics.CameraSnapshot {
	return metrics.CameraSnapshot{
		Camera:         k.index,
		Latency:        f.Latency,
		Batches:        f.Batches,
		Images:         f.Images,
		BatchOccupancy: f.Occupancy,
		Tracks:         k.Len(),
		Shadows:        k.Shadows(),
	}
}

// Demote turns a track into a shadow of the camera now responsible for
// the object. A track dropped since it was reported is nothing to
// demote.
func (k *Kernel) Demote(trackID, assigned int) {
	t := k.tracker.Get(trackID)
	if t == nil {
		return
	}
	k.shadows = append(k.shadows, shadow{
		box:      t.Box,
		vel:      t.Velocity,
		truthID:  t.TruthID,
		assigned: assigned,
	})
	k.tracker.Remove(trackID)
}

// keepsNew decides whether this camera is responsible for something new
// centred at the point, under its ownership rule. Only OwnMasks consults
// the policy.
func (k *Kernel) keepsNew(centre geom.Point, policy *core.DistributedPolicy) bool {
	switch k.own {
	case OwnAll:
		return true
	case OwnCells:
		cell, _ := k.grid.CellIndex(centre)
		return k.cellOwner[cell] == k.index
	case OwnMasks:
		cell, _ := k.grid.CellIndex(centre)
		return policy.ShouldTrack(k.index, k.coverage[cell])
	default:
		return false
	}
}

// takeover implements the second distributed-stage rule: when a
// shadowed object's assigned camera can no longer see it — it lost
// coverage per the static cell masks, or it is marked dead by the
// liveness mask — the highest-priority live camera still covering it
// takes over, without any communication, because every camera evaluates
// the same masks and the same shared dead set.
func (k *Kernel) takeover(policy *core.DistributedPolicy, out *Frame) {
	alive := k.shadows[:0]
	for _, sh := range k.shadows {
		cell, inside := k.grid.CellIndex(sh.box.Center())
		if !inside {
			continue // left this camera's view; drop the shadow
		}
		cover := k.coverage[cell]
		assignedSees := false
		for _, c := range cover {
			if c == sh.assigned {
				assignedSees = true
				break
			}
		}
		deadOwner := assignedSees && policy.Dead(sh.assigned)
		if assignedSees && !deadOwner {
			alive = append(alive, sh)
			continue
		}
		// Assigned camera lost it (coverage or death): does this camera
		// take over?
		if policy.ShouldTrack(k.index, cover) {
			if deadOwner {
				out.Reassigned++
			}
			k.tracker.Spawn(vision.Detection{Box: sh.box, Score: 0.5, TruthID: sh.truthID})
			continue // shadow promoted to active track
		}
		if owner, ok := policy.Owner(cover); ok {
			sh.assigned = owner // another camera takes it; keep shadowing
			alive = append(alive, sh)
		} else if deadOwner {
			out.Orphaned++ // no live camera covers it; the object is lost
		}
	}
	k.shadows = alive
}
