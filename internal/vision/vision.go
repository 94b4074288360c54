// Package vision simulates the object detection DNN (the paper's YOLOv5)
// as a statistical black box: given the ground-truth objects present in
// an inspected area, it returns noisy detections with a size-dependent
// miss probability. This preserves the properties the scheduling
// framework actually depends on — small/distant objects are less
// reliably detected, localization is imprecise, partial-region inspection
// sees only what lies in the region — without running a neural network.
//
// Detections carry the ground-truth object ID *for scoring only*; no
// pipeline component may branch on it except metrics code, mirroring how
// a real evaluation matches detections to labels afterwards.
package vision

import (
	"fmt"
	"math"
	"math/rand"

	"mvs/internal/geom"
	"mvs/internal/scene"
)

// Detection is one detector output box.
type Detection struct {
	// Box is the detected bounding box in pixels.
	Box geom.Rect
	// Score is the detector confidence in (0, 1].
	Score float64
	// TruthID is the ground-truth object identity — for scoring only.
	TruthID int
}

// Config tunes the detector's statistical behaviour.
type Config struct {
	// MissBase is the miss probability for large, well-resolved objects
	// (default 0.02).
	MissBase float64
	// NoiseFrac is the per-coordinate localization noise as a fraction of
	// the box side (default 0.02).
	NoiseFrac float64
	// MinSide is the side length (pixels, sqrt of area) below which
	// detection probability decays linearly to zero (default 20).
	MinSide float64
	// RegionBonus multiplies the miss probability for partial-region
	// inspections, which centre the object and use native resolution
	// (default 0.5, i.e. partial inspection halves misses).
	RegionBonus float64
	// MinCoverage is the fraction of an object's box a partial region
	// must contain for the detector to recognize it (default 0.5): a
	// crop showing only a corner of a vehicle does not classify. This is
	// what makes stale quantized sizes costly over long scheduling
	// horizons (Fig. 14).
	MinCoverage float64
}

func (c Config) withDefaults() Config {
	if c.MissBase <= 0 {
		c.MissBase = 0.02
	}
	if c.NoiseFrac <= 0 {
		c.NoiseFrac = 0.02
	}
	if c.MinSide <= 0 {
		c.MinSide = 20
	}
	if c.RegionBonus <= 0 {
		c.RegionBonus = 0.5
	}
	if c.MinCoverage <= 0 {
		c.MinCoverage = 0.5
	}
	return c
}

// Detector is a simulated detection model. It is not safe for concurrent
// use; each camera owns one.
type Detector struct {
	cfg Config
	rng *rand.Rand
	// regionDets is DetectRegions' result buffer, reused across calls.
	regionDets []Detection
}

// NewDetector builds a detector with the given noise seed.
func NewDetector(seed int64, cfg Config) *Detector {
	return &Detector{
		cfg: cfg.withDefaults(),
		rng: rand.New(rand.NewSource(seed*0x9E3779B9 + 0x7F4A7C15)),
	}
}

// detectProb returns the probability of detecting a box of the given
// pixel area, with missScale scaling the miss rate (1 for full frames,
// RegionBonus for partial regions).
func (d *Detector) detectProb(area float64, missScale float64) float64 {
	side := math.Sqrt(area)
	base := 1 - d.cfg.MissBase*missScale
	if side >= d.cfg.MinSide {
		return base
	}
	return base * side / d.cfg.MinSide
}

// noisyBox perturbs a ground-truth box with localization noise.
func (d *Detector) noisyBox(box geom.Rect) geom.Rect {
	sx := box.W() * d.cfg.NoiseFrac
	sy := box.H() * d.cfg.NoiseFrac
	return geom.Rect{
		MinX: box.MinX + d.rng.NormFloat64()*sx,
		MinY: box.MinY + d.rng.NormFloat64()*sy,
		MaxX: box.MaxX + d.rng.NormFloat64()*sx,
		MaxY: box.MaxY + d.rng.NormFloat64()*sy,
	}
}

// DetectFull runs a simulated full-frame inspection over the camera's
// visible objects. The caller owns the returned slice, which may be kept
// across calls; AppendFull is the same inspection into a buffer of the
// caller's.
func (d *Detector) DetectFull(objs []scene.Observation) []Detection {
	if len(objs) == 0 {
		return nil
	}
	return d.AppendFull(make([]Detection, 0, len(objs)), objs)
}

// AppendFull runs the full-frame inspection of DetectFull and appends
// its detections to dst, returning the extended slice, so a caller that
// passes its own scratch allocates nothing once the scratch has grown.
// It draws the same noise as DetectFull would.
func (d *Detector) AppendFull(dst []Detection, objs []scene.Observation) []Detection {
	return d.detect(dst, objs, nil, 1)
}

// DetectRegions runs simulated partial-region inspections over a batch of
// regions: only objects whose box centre lies inside a region are its
// candidates, and the miss probability is reduced by the region bonus.
// Objects that fall in several regions are deduplicated (the detector
// would return them once after non-max suppression). The result lives in
// a buffer of the detector's and is valid until the next DetectRegions
// call; callers that keep detections longer copy them out.
func (d *Detector) DetectRegions(regions []geom.Rect, objs []scene.Observation) ([]Detection, error) {
	out := d.regionDets[:0]
	for _, r := range regions {
		if r.Empty() {
			return nil, fmt.Errorf("vision: empty inspection region")
		}
		// Every region draws its noise as if inspected alone — repeats
		// included, so the random stream does not depend on the overlap —
		// and the repeats are then dropped in place. A frame holds a few
		// dozen detections at most: a scan beats a map.
		kept := len(out)
		out = d.detect(out, objs, &r, d.cfg.RegionBonus)
		for _, det := range out[kept:] {
			if !containsTruth(out[:kept], det.TruthID) {
				out[kept] = det
				kept++
			}
		}
		out = out[:kept]
	}
	d.regionDets = out
	return out, nil
}

func containsTruth(dets []Detection, truthID int) bool {
	for i := range dets {
		if dets[i].TruthID == truthID {
			return true
		}
	}
	return false
}

// detect appends the detections of one inspection (the whole frame when
// region is nil) to out.
func (d *Detector) detect(out []Detection, objs []scene.Observation, region *geom.Rect, missScale float64) []Detection {
	for _, o := range objs {
		if region != nil {
			if !region.Contains(o.Box.Center()) {
				continue
			}
			if a := o.Box.Area(); a > 0 && region.Intersect(o.Box).Area()/a < d.cfg.MinCoverage {
				continue // crop shows too little of the object to classify
			}
		}
		p := d.detectProb(o.Box.Area(), missScale)
		if d.rng.Float64() > p {
			continue // missed
		}
		out = append(out, Detection{
			Box:     d.noisyBox(o.Box),
			Score:   0.5 + 0.5*p*d.rng.Float64(),
			TruthID: o.ObjectID,
		})
	}
	return out
}
