package core_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"mvs/internal/assoc"
	"mvs/internal/core"
	"mvs/internal/flow"
	"mvs/internal/geom"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/vision"
)

// The paper's §III–IV loop, written once and literally; the law
// (law_test.go) holds pipeline.Engine to it. It reuses only scene,
// vision, flow, profile and the trained assoc.Model with its
// association, schedules key frames by spec_test.go's Algorithm 1, and
// draws the detectors' noise in the engine's order (ARCHITECTURE §4).

// specShadow is what a camera keeps of an object another camera
// tracks: its box here, coasting on the key-frame velocity.
type specShadow struct {
	box               geom.Rect
	vel               geom.Point
	truthID, assigned int
}

// specCam is one camera of the loop.
type specCam struct {
	t       testing.TB
	index   int
	prof    *profile.Profile
	grid    geom.Grid
	det     *vision.Detector
	tracker *flow.Tracker
	cover   [][]int // per cell: the cameras that see it
	owner   []int   // per cell: the camera SP's offline split gives it
	shadows []specShadow
}

// specRun is what a run of the loop emits: the snapshots and rounds an
// engine's sinks receive and the report's modelled projection.
type specRun struct {
	snaps  []metrics.Snapshot
	rounds []metrics.Round
	report pipeline.Report
}

// must fails the test on an error of a component the loop runs.
func must(t testing.TB, err error) {
	if err != nil {
		t.Helper()
		t.Fatal(err)
	}
}

// runSpec runs the loop over a trace under cfg.
func runSpec(t testing.TB, trace *scene.Trace, profiles []*profile.Profile, model *assoc.Model, cfg pipeline.Config) *specRun {
	mode, horizon := cfg.Sched.Mode, cfg.Sched.Horizon
	if horizon <= 0 {
		horizon = 10
	}
	label := cfg.Obs.Label
	if label == "" {
		label = mode.String()
	}
	masked := mode == pipeline.CentralOnly || mode == pipeline.BALB || mode == pipeline.StaticPartition
	cams := make([]*specCam, len(trace.Cameras))
	specs := make([]core.CameraSpec, len(cams))
	for i, sc := range trace.Cameras {
		c := &specCam{t: t, index: i, prof: profiles[i],
			grid: geom.NewGrid(sc.Frame(), assoc.GridCols, assoc.GridRows),
			det:  vision.NewDetector(cfg.Sim.Seed+int64(i)*101, cfg.Sim.Detector)}
		var err error
		c.tracker, err = flow.NewTracker(sc.Frame(), flow.Config{})
		must(c.t, err)
		if masked {
			c.cover, err = model.CellCoverage(i, c.grid)
			must(c.t, err)
		}
		cams[i], specs[i] = c, core.CameraSpec{Index: i, Profile: profiles[i]}
	}
	if mode == pipeline.StaticPartition {
		splitCells(cams)
	}
	// Before the first round, the priority order is the camera order.
	priority := make([]int, len(cams))
	for i := range priority {
		priority[i] = i
	}

	out := &specRun{}
	var tp, fn int
	recall := func() float64 {
		if tp+fn == 0 {
			return 1
		}
		return float64(tp) / float64(tp+fn)
	}
	for fi := range trace.Frames {
		frame := &trace.Frames[fi]
		key := fi%horizon == 0
		detected := map[int]bool{}
		rows := make([]metrics.CameraSnapshot, len(cams))
		var frameMax time.Duration
		for i, c := range cams {
			obs := frame.PerCamera[i]
			var dets []vision.Detection
			var sizes []int
			switch {
			case key:
				dets = c.keyFrame(obs, mode)
			case mode == pipeline.Full:
				dets = c.det.DetectFull(obs)
			default:
				dets, sizes = c.regularFrame(obs, mode, priority)
			}
			for _, d := range dets {
				detected[d.TruthID] = true
			}
			rows[i] = c.price(key || mode == pipeline.Full, sizes)
			frameMax = max(frameMax, rows[i].Latency)
		}
		if key && (mode == pipeline.CentralOnly || mode == pipeline.BALB) {
			round := metrics.Round{Source: metrics.SourcePipeline, Label: label, Seq: len(out.rounds), Frame: fi}
			priority, round.Assigned, round.Objects = centralStage(t, cams, specs, model, cfg)
			round.Priority = priority
			out.rounds = append(out.rounds, round)
		}
		// Recall: an object any camera sees counts once, found if any
		// camera detected it.
		truth := map[int]bool{}
		for _, obs := range frame.PerCamera {
			for _, o := range obs {
				truth[o.ObjectID] = true
			}
		}
		for id := range truth {
			if detected[id] {
				tp++
			} else {
				fn++
			}
		}
		for i, c := range cams {
			rows[i].Tracks, rows[i].Shadows = c.tracker.Len(), len(c.shadows)
		}
		out.snaps = append(out.snaps, metrics.Snapshot{Source: metrics.SourcePipeline, Label: label,
			Seq: fi, Frame: fi, TP: tp, FN: fn, Recall: recall(), FrameLatency: frameMax, Cameras: rows})
	}

	// The report, from the frames' rows: each camera's mean latency; the
	// Fig. 13 metric, per horizon of T frames (a partial last one
	// included) the slowest camera's mean latency, averaged over
	// horizons; and the frame latency's tail, by nearest rank.
	n := len(out.snaps)
	rep := pipeline.Report{Mode: mode, Frames: n, Horizon: horizon, Recall: recall(), TP: tp, FN: fn,
		PerCameraMean: make([]time.Duration, len(cams))}
	var sorted []time.Duration
	for _, snap := range out.snaps {
		sorted = append(sorted, snap.FrameLatency)
		for i, row := range snap.Cameras {
			rep.PerCameraMean[i] += row.Latency
		}
	}
	for i := range rep.PerCameraMean {
		rep.PerCameraMean[i] /= time.Duration(n)
	}
	for h := 0; h < n; h += horizon {
		span := out.snaps[h:min(h+horizon, n)]
		var slowest time.Duration
		for i := range cams {
			var sum time.Duration
			for _, snap := range span {
				sum += snap.Cameras[i].Latency
			}
			slowest = max(slowest, sum/time.Duration(len(span)))
		}
		rep.MeanSlowest += slowest
	}
	rep.MeanSlowest /= time.Duration((n + horizon - 1) / horizon)
	slices.Sort(sorted)
	rep.P95Slowest, rep.P99Slowest, rep.MaxSlowest = sorted[(95*n+99)/100-1], sorted[(99*n+99)/100-1], sorted[n-1]
	out.report = rep
	return out
}

// keyFrame is a camera's full inspection: every object it sees goes
// through the detector, the tracker takes the detections, each track's
// inspection size is fixed for the horizon, and the shadows are
// forgotten (the central stage makes new ones). Under SP the camera
// then drops the tracks in cells its static split gives another camera.
func (c *specCam) keyFrame(obs []scene.Observation, mode pipeline.Mode) []vision.Detection {
	dets := c.det.DetectFull(obs)
	_, err := c.tracker.Update(dets)
	must(c.t, err)
	c.tracker.RefreshSizes()
	c.shadows = nil
	if mode == pipeline.StaticPartition {
		for _, t := range c.tracker.Tracks() {
			if !c.keeps(t.Box.Center(), mode, nil) {
				c.tracker.Remove(t.ID)
			}
		}
	}
	return dets
}

// regularFrame is a camera's frame between key frames (§IV): the
// shadows coast, each track's region is inspected at its fixed size,
// moving regions no track or shadow explains are inspected when this
// camera claims them, the tracker takes the detections, new tracks the
// camera does not claim are dropped, and under BALB shadowed objects are
// taken over. It returns the detections and the inspected regions'
// sizes.
func (c *specCam) regularFrame(obs []scene.Observation, mode pipeline.Mode, priority []int) ([]vision.Detection, []int) {
	var alive []specShadow
	for _, sh := range c.shadows {
		sh.box = sh.box.Translate(sh.vel)
		if c.grid.Frame.Contains(sh.box.Center()) {
			alive = append(alive, sh)
		}
	}
	c.shadows = alive
	var regions, explained []geom.Rect
	var sizes []int
	for _, t := range c.tracker.Tracks() {
		regions = append(regions, c.tracker.Region(t))
		sizes = append(sizes, t.QuantSize)
		explained = append(explained, t.Predicted())
	}
	if mode != pipeline.CentralOnly { // BALB-Cen claims nothing new
		var moving []geom.Rect
		for _, o := range obs {
			moving = append(moving, o.Box)
		}
		for _, sh := range c.shadows {
			explained = append(explained, sh.box)
		}
		for _, r := range flow.NewRegions(nil, moving, explained, 0) {
			if c.keeps(r.Center(), mode, priority) {
				q, size := geom.QuantizeRect(r, c.grid.Frame, c.tracker.Sizes())
				regions, sizes = append(regions, q), append(sizes, size)
			}
		}
	}
	dets, err := c.det.DetectRegions(regions, obs)
	must(c.t, err)
	created, err := c.tracker.Update(dets)
	must(c.t, err)
	for _, id := range created {
		if t := c.tracker.Get(id); t != nil && !c.keeps(t.Box.Center(), mode, priority) {
			c.tracker.Remove(id)
		}
	}
	if mode == pipeline.BALB {
		c.takeover(priority)
	}
	return dets, sizes
}

// keeps says whether the camera is responsible for something new
// centred at p: under BALB-Ind always; under SP when its static split
// owns p's cell; under BALB when it comes first in the priority order
// among the cameras that see p's cell (the cell's mask); under BALB-Cen
// never.
func (c *specCam) keeps(p geom.Point, mode pipeline.Mode, priority []int) bool {
	cell, _ := c.grid.CellIndex(p)
	switch mode {
	case pipeline.Independent:
		return true
	case pipeline.StaticPartition:
		return c.owner[cell] == c.index
	case pipeline.BALB:
		return first(priority, c.cover[cell]) == c.index
	}
	return false
}

// first returns the first camera of the priority order in cover, or -1.
func first(priority, cover []int) int {
	for _, c := range priority {
		if slices.Contains(cover, c) {
			return c
		}
	}
	return -1
}

// takeover is §IV's second rule: a shadow leaves with the object, and a
// shadowed object whose camera no longer sees its cell goes to the first
// camera in the priority order that does — this camera spawns a track
// for it, any other camera shadows the new owner.
func (c *specCam) takeover(priority []int) {
	var alive []specShadow
	for _, sh := range c.shadows {
		cell, inside := c.grid.CellIndex(sh.box.Center())
		if !inside {
			continue
		}
		cover := c.cover[cell]
		switch owner := first(priority, cover); {
		case slices.Contains(cover, sh.assigned):
			alive = append(alive, sh)
		case owner == c.index:
			c.tracker.Spawn(vision.Detection{Box: sh.box, Score: 0.5, TruthID: sh.truthID})
		case owner >= 0:
			sh.assigned = owner
			alive = append(alive, sh)
		}
	}
	c.shadows = alive
}

// price is the camera-frame's inspection time on its device: t_full for
// a full frame, else the sum of its batches' latencies (Definition 1),
// the regions batched size by size, ascending, each size's n regions in
// ceil(n/B) batches of at most B, each batch at the device's latency for
// its fill. The row also carries the batches, the regions and the
// batches' mean fill.
func (c *specCam) price(full bool, sizes []int) metrics.CameraSnapshot {
	row := metrics.CameraSnapshot{Camera: c.index}
	if full {
		row.Latency = profile.TrueFullFrameLatency(c.prof.Class)
		return row
	}
	regions := map[int]int{}
	for _, s := range sizes {
		regions[s]++
	}
	var fill float64
	for _, s := range c.prof.Sizes {
		b := c.prof.BatchLimit[s]
		for n := regions[s]; n > 0; n -= b {
			k := min(n, b)
			row.Latency += profile.TrueBatchLatency(c.prof.Class, s, k)
			row.Batches, row.Images, fill = row.Batches+1, row.Images+k, fill+float64(k)/float64(b)
		}
	}
	if row.Batches > 0 {
		row.BatchOccupancy = fill / float64(row.Batches)
	}
	return row
}

// centralStage is a key frame's round: the cameras' tracks are
// associated into objects, each object is seen by the cameras with a
// member at their largest member's size, Algorithm 1 (or §V's variant)
// assigns them, and every member its camera does not keep becomes a
// shadow of the object's camera. It returns the new priority order, the
// objects each camera tracks and the object count.
func centralStage(t testing.TB, cams []*specCam, specs []core.CameraSpec, model *assoc.Model, cfg pipeline.Config) ([]int, []int, int) {
	boxes := make([][]geom.Rect, len(cams))
	tracks := make([][]flow.Track, len(cams))
	for i, c := range cams {
		for _, tr := range c.tracker.Tracks() {
			boxes[i], tracks[i] = append(boxes[i], tr.Box), append(tracks[i], *tr)
		}
	}
	groups, err := model.Associate(boxes, assoc.MinIoU)
	must(t, err)
	objects := make([]core.ObjectSpec, len(groups))
	for gi, g := range groups {
		o := core.ObjectSpec{ID: gi + 1, Size: map[int]int{}}
		for _, m := range g.Members {
			if _, seen := o.Size[m.Cam]; !seen {
				o.Coverage = append(o.Coverage, m.Cam)
			}
			o.Size[m.Cam] = max(o.Size[m.Cam], tracks[m.Cam][m.Index].QuantSize)
		}
		objects[gi] = o
	}
	slack := cfg.Sched.RedundancySlack
	if slack <= 0 {
		slack = 1.2
	}
	sol, err := core.SpecSolve(specs, objects, core.CentralOptions{}, cfg.Sched.Redundancy, slack)
	must(t, err)
	assigned := make([]int, len(cams))
	for gi, g := range groups {
		owner, extra := sol.Assign[gi], sol.Extra(gi)
		assigned[owner]++
		for _, e := range extra {
			assigned[e]++
		}
		for _, m := range g.Members {
			if m.Cam == owner || slices.Contains(extra, m.Cam) {
				continue
			}
			tr, c := tracks[m.Cam][m.Index], cams[m.Cam]
			c.shadows = append(c.shadows, specShadow{box: tr.Box, vel: tr.Velocity, truthID: tr.TruthID, assigned: owner})
			c.tracker.Remove(tr.ID)
		}
	}
	return sol.Priority, assigned, len(objects)
}

// splitCells is SP's offline step: each camera's cells go to their
// covering cameras in proportion to capacity, 1/t_full normalized over
// the fleet, by smooth weighted round-robin per coverage set — each cell
// to the covering camera with the largest accumulated share, ties to the
// lower index, which then gives one share back.
func splitCells(cams []*specCam) {
	weight := make([]float64, len(cams))
	var total float64
	for i, c := range cams {
		weight[i] = 1 / float64(c.prof.FullFrame)
		total += weight[i]
	}
	for i := range weight {
		weight[i] /= total
	}
	for _, c := range cams {
		shares := map[string]map[int]float64{} // per coverage set
		for _, cover := range c.cover {
			set := slices.Clone(cover)
			sort.Ints(set)
			key := fmt.Sprint(set)
			if shares[key] == nil {
				shares[key] = map[int]float64{}
			}
			share := shares[key]
			var local float64
			for _, k := range cover {
				local += weight[k]
			}
			best := -1
			for _, k := range cover {
				share[k] += weight[k] / local
				if best < 0 || share[k] > share[best] || share[k] == share[best] && k < best {
					best = k
				}
			}
			share[best]--
			c.owner = append(c.owner, best)
		}
	}
}
