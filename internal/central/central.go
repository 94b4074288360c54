// Package central is the round kernel: one central-stage scheduling
// round of the BALB framework, with no transport. Given each camera's
// key-frame view — the boxes it tracks, their camera-local track IDs and
// quantized sizes — it decides which boxes are the same physical object
// (assoc), builds the MVS instance (one core.ObjectSpec per associated
// group: coverage set and per-camera size), solves it (core.Central, or
// core.CentralRedundant when occlusion hedging asks for extra trackers),
// and says for every member track whether its camera keeps inspecting it
// or shadows the object's owner. The instance format and that
// keep-or-shadow rule live here and nowhere else.
//
// Both deployment shapes host it: pipeline's central stage gathers views
// from its camera kernels and applies the decisions to them directly;
// cluster.Scheduler gathers views from wire reports and turns the
// decisions into assignments. Camera indices are local to the round's
// roster throughout; hosts that schedule a shard translate at their own
// boundary.
package central

import (
	"fmt"
	"slices"

	"mvs/internal/assoc"
	"mvs/internal/core"
	"mvs/internal/geom"
)

// Track identifies one reported track within its camera's view.
type Track struct {
	// ID is the camera-local track identifier.
	ID int
	// Size is the track's quantized inspection size for the horizon.
	Size int
}

// Views is a round's input in struct-of-arrays form: per local camera
// its track boxes and, index-aligned, their IDs and sizes. A camera
// without a view this round (dead, disconnected) keeps nil lists.
type Views struct {
	Boxes  [][]geom.Rect
	Tracks [][]Track

	boxArena   []geom.Rect
	trackArena []Track
}

// NewViews sizes a round's input for the given camera count; the
// per-camera lists are cut from two arrays sized for tracks entries in
// total (more are accepted, at the cost of a reallocation).
func NewViews(cams, tracks int) Views {
	return Views{
		Boxes:      make([][]geom.Rect, cams),
		Tracks:     make([][]Track, cams),
		boxArena:   make([]geom.Rect, 0, tracks),
		trackArena: make([]Track, 0, tracks),
	}
}

// Add appends one track to a camera's view. All of a camera's tracks
// are added before the next camera's.
func (v *Views) Add(cam int, box geom.Rect, t Track) {
	first := len(v.boxArena) - len(v.Boxes[cam])
	v.boxArena = append(v.boxArena, box)
	v.trackArena = append(v.trackArena, t)
	n := len(v.boxArena)
	v.Boxes[cam] = v.boxArena[first:n:n]
	v.Tracks[cam] = v.trackArena[first:n:n]
}

// Params configures a round.
type Params struct {
	// Model is the association model scoped to the round's roster.
	Model *assoc.Model
	// Cameras are the roster's cameras, Index == local position.
	Cameras []core.CameraSpec
	// MinIoU is the association matching threshold.
	MinIoU float64
	// Workers bounds the per-pair association fan-out.
	Workers int
	// Redundancy > 1 keeps up to that many trackers per object, within
	// Slack times the base system latency (core.CentralRedundant).
	Redundancy int
	Slack      float64
}

// Round is a solved round.
type Round struct {
	// Groups are the associated objects; Objects[i] is the MVS instance
	// entry built from Groups[i] (ID i+1).
	Groups  []assoc.Group
	Objects []core.ObjectSpec
	// Solution is the central-stage assignment and priority order.
	Solution *core.Solution
	// Extra lists each object's redundant trackers by object ID; nil
	// without redundancy.
	Extra map[int][]int
}

// Member is one track's fate in a solved round.
type Member struct {
	// Object is the MVS object ID the track belongs to.
	Object int
	// Cam and Index locate the track in the round's Views.
	Cam, Index int
	// Owner is the camera the object is assigned to.
	Owner int
	// Kept reports whether Cam keeps inspecting the track: it is the
	// owner or one of the object's redundant trackers. Otherwise the
	// track becomes a shadow of Owner.
	Kept bool
}

// Solve associates the views, builds the MVS instance and schedules it.
func Solve(p Params, v *Views) (Round, error) {
	groups, err := p.Model.AssociateWorkers(v.Boxes, p.MinIoU, p.Workers)
	if err != nil {
		return Round{}, fmt.Errorf("association: %w", err)
	}
	// One object per associated group: covered by every camera with a
	// member, at that camera's largest member size.
	objects := make([]core.ObjectSpec, len(groups))
	for gi, g := range groups {
		spec := core.ObjectSpec{ID: gi + 1, Size: make(map[int]int)}
		for _, ref := range g.Members {
			if _, seen := spec.Size[ref.Cam]; !seen {
				spec.Coverage = append(spec.Coverage, ref.Cam)
			}
			if sz := v.Tracks[ref.Cam][ref.Index].Size; sz > spec.Size[ref.Cam] {
				spec.Size[ref.Cam] = sz
			}
		}
		objects[gi] = spec
	}
	r := Round{Groups: groups, Objects: objects}
	if p.Redundancy > 1 {
		r.Solution, r.Extra, err = core.CentralRedundant(p.Cameras, objects, p.Redundancy, p.Slack)
		if err != nil {
			return Round{}, fmt.Errorf("redundant central BALB: %w", err)
		}
		return r, nil
	}
	if r.Solution, err = core.Central(p.Cameras, objects, core.CentralOptions{}); err != nil {
		return Round{}, fmt.Errorf("central BALB: %w", err)
	}
	return r, nil
}

// Walk visits every member track of every scheduled object, in group and
// member order.
func (r *Round) Walk(visit func(Member)) {
	for gi, g := range r.Groups {
		owner := r.Solution.Assign[gi+1]
		for _, ref := range g.Members {
			visit(Member{
				Object: gi + 1, Cam: ref.Cam, Index: ref.Index, Owner: owner,
				Kept: ref.Cam == owner || slices.Contains(r.Extra[gi+1], ref.Cam),
			})
		}
	}
}
