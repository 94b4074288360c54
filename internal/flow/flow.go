// Package flow implements the optical-flow-based tracking-by-detection
// the cameras run between full-frame inspections. Detection boxes are
// associated with existing track trajectories by IoU through the
// Hungarian algorithm; each track carries an exponentially smoothed pixel
// velocity (the simulated optical-flow motion estimate) used to predict
// its next location, which in turn defines the partial inspection region
// for the next frame.
//
// The package also provides the paper's "new region" mechanism: clusters
// of moving pixels not explained by any predicted track box are proposed
// as regions where a new object may have appeared, so arrivals are
// noticed before the next key frame.
package flow

import (
	"cmp"
	"fmt"
	"slices"

	"mvs/internal/geom"
	"mvs/internal/hungarian"
	"mvs/internal/vision"
)

// Track is one tracked object on one camera.
type Track struct {
	// ID is the camera-local track identifier.
	ID int
	// TruthID is the ground-truth identity of the last matched detection
	// (scoring only).
	TruthID int
	// Box is the current estimated bounding box.
	Box geom.Rect
	// Velocity is the smoothed per-frame pixel motion of the box centre.
	Velocity geom.Point
	// QuantSize is the quantized target size for partial inspection,
	// fixed within a scheduling horizon.
	QuantSize int
	// Age is the number of frames since the track was created.
	Age int
	// Missed is the number of consecutive frames without a matched
	// detection.
	Missed int
}

// Predicted returns the track's box advanced one frame by its velocity.
func (t *Track) Predicted() geom.Rect {
	return t.Box.Translate(t.Velocity)
}

// Config tunes the tracker.
type Config struct {
	// MatchIoU is the minimum IoU for a detection-track association
	// (default 0.25).
	MatchIoU float64
	// MaxMissed is how many frames a track survives without detections
	// before being dropped (default 3).
	MaxMissed int
	// SmoothAlpha is the velocity smoothing factor: 1 = use only the
	// newest displacement (default 0.5).
	SmoothAlpha float64
	// Sizes is the quantized size set (default geom.StandardSizes).
	Sizes []int
}

func (c Config) withDefaults() Config {
	if c.MatchIoU <= 0 {
		c.MatchIoU = 0.25
	}
	if c.MaxMissed <= 0 {
		c.MaxMissed = 3
	}
	if c.SmoothAlpha <= 0 {
		c.SmoothAlpha = 0.5
	}
	if len(c.Sizes) == 0 {
		c.Sizes = geom.StandardSizes
	}
	return c
}

// Tracker maintains the track set of one camera. Not safe for concurrent
// use.
//
// The tracker owns its per-frame scratch (the Tracks view, the predicted
// boxes, the match flags, the Hungarian workspace, the created-ID list)
// and recycles the Track values of dropped and removed tracks, so once it
// has held its largest track set it allocates nothing, arrivals included.
// The price is in the doc comments of Tracks and Update: what they return
// is valid until the next call of the same method, and a *Track that has
// left the tracker may be reused — with another ID — from the next Tracks
// or Update call on.
type Tracker struct {
	cfg      Config
	allSizes []int // the full configured size set; cfg.Sizes is the capped view
	frame    geom.Rect
	nextID   int
	// tracks holds the live tracks in ascending ID order. IDs only grow,
	// so Spawn's append keeps the order and Get/Remove can bisect.
	tracks []*Track
	// free holds Track values for Spawn to reuse. retired holds the
	// tracks dropped or removed since the last Tracks or Update call: a
	// Tracks snapshot may still show them, so they join free only at the
	// next Tracks or Update.
	free, retired []*Track

	view         []*Track
	predicted    []geom.Rect
	matchedTrack []bool
	matchedDet   []bool
	created      []int
	solver       hungarian.Solver
}

// NewTracker builds a tracker over the camera's pixel frame.
func NewTracker(frame geom.Rect, cfg Config) (*Tracker, error) {
	if frame.Empty() {
		return nil, fmt.Errorf("flow: empty camera frame")
	}
	cfg = cfg.withDefaults()
	return &Tracker{
		cfg:      cfg,
		allSizes: cfg.Sizes,
		frame:    frame,
		nextID:   1,
	}, nil
}

// SetSizeCap caps the quantized target sizes at capPx pixels: Spawn and
// RefreshSizes quantize against the filtered size set until the cap
// changes. 0 (or any cap at or above the largest size) restores the full
// configured set; a cap below the smallest size keeps just the smallest,
// so the set is never empty. Existing tracks keep their QuantSize until
// the next RefreshSizes — the degradation ladder applies caps at key
// frames, where every track is re-quantized anyway.
func (tr *Tracker) SetSizeCap(capPx int) {
	if capPx <= 0 {
		tr.cfg.Sizes = tr.allSizes
		return
	}
	capped := tr.allSizes[:0:0]
	for _, s := range tr.allSizes {
		if s <= capPx {
			capped = append(capped, s)
		}
	}
	if len(capped) == 0 {
		capped = tr.allSizes[:1]
	}
	tr.cfg.Sizes = capped
}

// Sizes returns the size set currently in force (the configured set,
// filtered by any SetSizeCap). Callers must not mutate it; the pipeline
// quantizes new-region proposals against it so proposals and tracks
// degrade together.
func (tr *Tracker) Sizes() []int { return tr.cfg.Sizes }

// Tracks returns the live tracks sorted by ID (deterministic order). The
// slice is a snapshot in the tracker's own buffer: Spawn and Remove may be
// called while ranging over it — a track removed meanwhile keeps its
// values — and it is valid until the next call to Tracks or Update.
// Callers that keep tracks longer copy them out.
func (tr *Tracker) Tracks() []*Track {
	tr.recycle()
	tr.view = append(tr.view[:0], tr.tracks...)
	return tr.view
}

// recycle hands the tracks retired since the last Tracks or Update call
// to Spawn.
func (tr *Tracker) recycle() {
	tr.free = append(tr.free, tr.retired...)
	clear(tr.retired)
	tr.retired = tr.retired[:0]
}

// Len returns the number of live tracks.
func (tr *Tracker) Len() int { return len(tr.tracks) }

// find returns the position of the track with the given ID in tr.tracks.
func (tr *Tracker) find(id int) (int, bool) {
	return slices.BinarySearchFunc(tr.tracks, id, func(t *Track, id int) int { return cmp.Compare(t.ID, id) })
}

// Get returns the track with the given ID, or nil.
func (tr *Tracker) Get(id int) *Track {
	if i, ok := tr.find(id); ok {
		return tr.tracks[i]
	}
	return nil
}

// Remove drops a track (used when the scheduler assigns the object to a
// different camera).
func (tr *Tracker) Remove(id int) {
	if i, ok := tr.find(id); ok {
		tr.retired = append(tr.retired, tr.tracks[i])
		tr.tracks = slices.Delete(tr.tracks, i, i+1)
	}
}

// Update advances all tracks one frame and associates the new detections
// to them. Unmatched detections become new tracks; tracks unmatched for
// more than MaxMissed frames are dropped. Matched tracks update box,
// velocity, and truth ID. It returns the IDs of newly created tracks, in
// a buffer of the tracker's that is valid until the next Update; dets is
// not retained.
func (tr *Tracker) Update(dets []vision.Detection) ([]int, error) {
	tr.recycle()
	tracks := tr.tracks
	// Predict all current tracks forward.
	tr.predicted = tr.predicted[:0]
	for _, t := range tracks {
		tr.predicted = append(tr.predicted, t.Predicted())
	}
	predicted := tr.predicted

	tr.matchedTrack = resetFlags(tr.matchedTrack, len(tracks))
	tr.matchedDet = resetFlags(tr.matchedDet, len(dets))
	if len(tracks) > 0 && len(dets) > 0 {
		profit := tr.solver.Matrix(len(tracks), len(dets))
		for i := range tracks {
			for j, d := range dets {
				profit[i][j] = predicted[i].IoU(d.Box)
			}
		}
		assign, _, err := tr.solver.MaximizeProfit(profit, tr.cfg.MatchIoU)
		if err != nil {
			return nil, fmt.Errorf("flow: association: %w", err)
		}
		for i, j := range assign {
			if j < 0 {
				continue
			}
			tr.applyMatch(tracks[i], dets[j])
			tr.matchedTrack[i] = true
			tr.matchedDet[j] = true
		}
	}

	// Unmatched tracks coast on prediction and age toward removal; the
	// survivors are compacted in place, which keeps the ID order.
	live := tracks[:0]
	for i, t := range tracks {
		if !tr.matchedTrack[i] {
			t.Box = predicted[i].Clamp(tr.frame)
			t.Age++
			t.Missed++
			if t.Missed > tr.cfg.MaxMissed || t.Box.Empty() {
				tr.retired = append(tr.retired, t)
				continue
			}
		}
		live = append(live, t)
	}
	clear(tracks[len(live):]) // the dropped tracks are retired
	tr.tracks = live

	// Unmatched detections spawn new tracks.
	tr.created = tr.created[:0]
	for j, d := range dets {
		if tr.matchedDet[j] {
			continue
		}
		tr.created = append(tr.created, tr.Spawn(d))
	}
	return tr.created, nil
}

// resetFlags returns flags resized to n, all false. It reallocates only
// when the capacity is too small, and then to at least twice the old
// capacity.
func resetFlags(flags []bool, n int) []bool {
	if cap(flags) < n {
		return make([]bool, n, max(n, 2*cap(flags)))
	}
	flags = flags[:n]
	clear(flags)
	return flags
}

// applyMatch updates a track with its matched detection.
func (tr *Tracker) applyMatch(t *Track, d vision.Detection) {
	newCentre := d.Box.Center()
	delta := newCentre.Sub(t.Box.Center())
	a := tr.cfg.SmoothAlpha
	t.Velocity = geom.Point{
		X: a*delta.X + (1-a)*t.Velocity.X,
		Y: a*delta.Y + (1-a)*t.Velocity.Y,
	}
	t.Box = d.Box
	t.TruthID = d.TruthID
	t.Age++
	t.Missed = 0
}

// Spawn creates a track directly from a detection (used for new-region
// hits and for objects handed over by the scheduler) and returns its ID.
// The quantized size is chosen immediately; it stays fixed until the next
// RefreshSizes. The new track reuses a recycled Track when one is free.
func (tr *Tracker) Spawn(d vision.Detection) int {
	id := tr.nextID
	tr.nextID++
	size := geom.QuantizeSize(d.Box.LongSide(), tr.cfg.Sizes)
	var t *Track
	if n := len(tr.free); n > 0 {
		t = tr.free[n-1]
		tr.free[n-1] = nil
		tr.free = tr.free[:n-1]
	} else {
		t = new(Track)
	}
	*t = Track{
		ID:        id,
		TruthID:   d.TruthID,
		Box:       d.Box,
		QuantSize: size,
	}
	tr.tracks = append(tr.tracks, t)
	return id
}

// RefreshSizes re-quantizes every track's target size. The pipeline calls
// this at key frames: "the quantized size is fixed for each object within
// a scheduling horizon".
func (tr *Tracker) RefreshSizes() {
	for _, t := range tr.tracks {
		t.QuantSize = geom.QuantizeSize(t.Box.LongSide(), tr.cfg.Sizes)
	}
}

// Region returns the partial inspection region for a track: a square of
// its fixed quantized size centred on the predicted location, shifted to
// stay within the frame. If the object has grown beyond the fixed size,
// the region keeps the fixed size (the real system downsamples the
// content instead of rebatching).
func (tr *Tracker) Region(t *Track) geom.Rect {
	centre := t.Predicted().Center()
	return geom.SquareAround(geom.RectFromCenter(centre, 1, 1), t.QuantSize, tr.frame)
}

// NewRegions implements the moving-pixel "new region" proposal: every
// ground-truth motion cluster (observation box) that no predicted box
// explains becomes a candidate region, slightly inflated the way a
// flow-based cluster over-segments. A prediction explains a cluster when
// it covers the cluster's centre or overlaps it with an IoU of at least
// minCover (default 0.1 when <= 0). The proposals are appended to dst,
// which is returned, so a caller that passes its own scratch allocates
// nothing once the scratch has grown.
func NewRegions(dst, moving, predicted []geom.Rect, minCover float64) []geom.Rect {
	if minCover <= 0 {
		minCover = 0.1
	}
	for _, m := range moving {
		explained := false
		c := m.Center()
		// Both predicates are pure; the centre test is the cheap one and
		// explains most moving boxes (their own track's prediction).
		for _, p := range predicted {
			if p.Contains(c) || p.IoU(m) >= minCover {
				explained = true
				break
			}
		}
		if !explained {
			dst = append(dst, m.Inflate(m.LongSide()*0.15))
		}
	}
	return dst
}
