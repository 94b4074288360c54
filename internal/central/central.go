// Package central is the round kernel: one central-stage scheduling
// round of the BALB framework, with no transport. Given each camera's
// key-frame view — the boxes it tracks, their camera-local track IDs and
// quantized sizes — it decides which boxes are the same physical object
// (assoc), builds the MVS instance (one core.Instance object per
// associated group: coverage set and per-camera size), solves it
// (core.Solver.Central, or CentralRedundant when occlusion hedging asks
// for extra trackers), and says for every member track whether its camera
// keeps inspecting it or shadows the object's owner. The instance builder
// and that keep-or-shadow rule live here and nowhere else.
//
// A Round is the round's whole workspace — views, association
// workspace, instance, solver — so a host that keeps one and solves it
// every key frame allocates, in steady state, nothing (association's
// fan-out goroutines aside, when Params.Workers asks for more than one).
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
// without a view this round (dead, disconnected) keeps empty lists.
type Views struct {
	Boxes  [][]geom.Rect
	Tracks [][]Track

	boxArena   []geom.Rect
	trackArena []Track
}

// Reset empties the views for a round over the given camera count; the
// per-camera lists are cut from two arrays kept across rounds and grown
// — to at least twice their old size — to hold tracks entries in total
// (more are accepted, at the cost of a reallocation).
func (v *Views) Reset(cams, tracks int) {
	v.Boxes = resize(v.Boxes, cams)
	v.Tracks = resize(v.Tracks, cams)
	if cap(v.boxArena) < tracks {
		n := max(tracks, 2*cap(v.boxArena))
		v.boxArena = make([]geom.Rect, 0, n)
		v.trackArena = make([]Track, 0, n)
	}
	v.boxArena, v.trackArena = v.boxArena[:0], v.trackArena[:0]
}

// resize returns n nil lists, reusing lists' storage.
func resize[T any](lists [][]T, n int) [][]T {
	if cap(lists) < n {
		return make([][]T, n)
	}
	lists = lists[:n]
	clear(lists)
	return lists
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

// Round is one round's workspace and, after Solve, the solved round. The
// host fills Views (Reset, then Add); Solve fills the rest. What Solve
// leaves here is valid until the next Solve on the same Round, and the
// zero value is ready to use.
type Round struct {
	Views Views
	// Groups are the associated objects; object i of the instance
	// Objects is built from Groups[i], with ID i+1.
	Groups  []assoc.Group
	Objects core.Instance
	// Solution is the central-stage assignment (by object), the redundant
	// trackers, and the priority order; it lives in the Round's solver.
	Solution *core.Solution

	assoc  assoc.Workspace
	solver core.Solver
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

// Solve associates r's views, rebuilds its MVS instance and schedules
// it, overwriting what the previous Solve left in r. Groups live in r's
// association workspace.
func Solve(p Params, r *Round) error {
	groups, err := r.assoc.Associate(p.Model, r.Views.Boxes, p.MinIoU, p.Workers)
	if err != nil {
		return fmt.Errorf("association: %w", err)
	}
	r.Groups = groups
	build(&r.Objects, groups, r.Views.Tracks)
	if p.Redundancy > 1 {
		if r.Solution, err = r.solver.CentralRedundant(p.Cameras, &r.Objects, p.Redundancy, p.Slack); err != nil {
			return fmt.Errorf("redundant central BALB: %w", err)
		}
		return nil
	}
	if r.Solution, err = r.solver.Central(p.Cameras, &r.Objects, core.CentralOptions{}); err != nil {
		return fmt.Errorf("central BALB: %w", err)
	}
	return nil
}

// build refills in with one object per associated group, with ID gi+1:
// covered by every camera with a member, in the order the cameras first
// appear among the members (a batch-join tie in core.Solver.Central goes
// to the earlier camera), at that camera's largest member size.
func build(in *core.Instance, groups []assoc.Group, tracks [][]Track) {
	in.Reset()
	for gi, g := range groups {
		in.Add(gi + 1)
		for k, ref := range g.Members {
			if slices.Contains(in.Cameras(gi), int32(ref.Cam)) {
				continue // sized with its first member
			}
			size := tracks[ref.Cam][ref.Index].Size
			for _, other := range g.Members[k+1:] {
				if other.Cam == ref.Cam {
					size = max(size, tracks[other.Cam][other.Index].Size)
				}
			}
			in.Cover(ref.Cam, size)
		}
	}
}

// Walk visits every member track of every scheduled object, in group and
// member order.
func (r *Round) Walk(visit func(Member)) {
	for gi, g := range r.Groups {
		owner := r.Solution.Assign[gi]
		for _, ref := range g.Members {
			visit(Member{
				Object: r.Objects.ID(gi), Cam: ref.Cam, Index: ref.Index, Owner: owner,
				Kept: ref.Cam == owner || slices.Contains(r.Solution.Extra(gi), ref.Cam),
			})
		}
	}
}
