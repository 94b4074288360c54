package scene

import (
	"fmt"
	"math"
	"math/rand"

	"mvs/internal/geom"
)

// Path is a polyline route through the world, parameterized by arc
// length.
type Path struct {
	waypoints []geom.Point
	cumLen    []float64
}

// NewPath builds a path from at least two waypoints.
func NewPath(waypoints ...geom.Point) (*Path, error) {
	if len(waypoints) < 2 {
		return nil, fmt.Errorf("scene: path needs >= 2 waypoints, got %d", len(waypoints))
	}
	p := &Path{waypoints: waypoints, cumLen: make([]float64, len(waypoints))}
	for i := 1; i < len(waypoints); i++ {
		seg := waypoints[i].Dist(waypoints[i-1])
		if seg <= 0 {
			return nil, fmt.Errorf("scene: path has zero-length segment at %d", i)
		}
		p.cumLen[i] = p.cumLen[i-1] + seg
	}
	return p, nil
}

// MustPath is NewPath that panics on error, for static scenario tables.
func MustPath(waypoints ...geom.Point) *Path {
	p, err := NewPath(waypoints...)
	if err != nil {
		panic(err)
	}
	return p
}

// Length returns the total path length in metres.
func (p *Path) Length() float64 { return p.cumLen[len(p.cumLen)-1] }

// PosAt returns the position and heading at the given arc length. The
// boolean is false when dist is beyond the end of the path (the object
// has left the world).
func (p *Path) PosAt(dist float64) (geom.Point, float64, bool) {
	if dist < 0 || dist > p.Length() {
		return geom.Point{}, 0, false
	}
	// Find the segment containing dist.
	seg := 1
	for seg < len(p.cumLen)-1 && p.cumLen[seg] < dist {
		seg++
	}
	a, b := p.waypoints[seg-1], p.waypoints[seg]
	segStart := p.cumLen[seg-1]
	segLen := p.cumLen[seg] - segStart
	t := (dist - segStart) / segLen
	pos := a.Lerp(b, t)
	heading := math.Atan2(b.Y-a.Y, b.X-a.X)
	return pos, heading, true
}

// ArrivalProcess decides how many new objects enter a route at each
// frame.
type ArrivalProcess interface {
	// Arrivals returns the number of objects spawning at the given frame
	// index. fps converts frames to seconds; rng provides determinism.
	Arrivals(frame int, fps float64, rng *rand.Rand) int
}

// Poisson is a memoryless arrival process with a constant rate, used for
// the sparse residential scenario (S2).
type Poisson struct {
	// RatePerSec is the expected arrivals per second.
	RatePerSec float64
}

// Arrivals implements ArrivalProcess by Knuth's Poisson sampling with
// mean RatePerSec/fps.
func (p Poisson) Arrivals(_ int, fps float64, rng *rand.Rand) int {
	return samplePoisson(p.RatePerSec/fps, rng)
}

// TrafficLight gates a Poisson process with a periodic green phase,
// producing the platooned, periodic workload of a signalized intersection
// (S1): "regular traffic patterns are observed caused by the traffic
// lights".
type TrafficLight struct {
	// RatePerSec is the arrival rate during green.
	RatePerSec float64
	// PeriodSec is the full light cycle length in seconds.
	PeriodSec float64
	// GreenStartSec is when the green phase begins within the cycle.
	GreenStartSec float64
	// GreenDurSec is the green phase duration.
	GreenDurSec float64
}

// Arrivals implements ArrivalProcess.
func (t TrafficLight) Arrivals(frame int, fps float64, rng *rand.Rand) int {
	sec := math.Mod(float64(frame)/fps, t.PeriodSec)
	phase := sec - t.GreenStartSec
	if phase < 0 {
		phase += t.PeriodSec
	}
	if phase >= t.GreenDurSec {
		return 0
	}
	return samplePoisson(t.RatePerSec/fps, rng)
}

// validate refuses a light that could not gate: a period that is not
// positive and finite makes Arrivals' phase NaN, green on every frame.
func (t TrafficLight) validate() error {
	if !finite(t.PeriodSec) || t.PeriodSec <= 0 {
		return fmt.Errorf("traffic light period %v must be positive and finite", t.PeriodSec)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"rate", t.RatePerSec}, {"green start", t.GreenStartSec}, {"green duration", t.GreenDurSec}} {
		if !finite(f.v) {
			return fmt.Errorf("traffic light %s %v must be finite", f.name, f.v)
		}
	}
	return nil
}

// Burst spawns a fixed number of objects at one specific frame — useful
// for tests and for stressing the distributed stage with synchronized
// arrivals.
type Burst struct {
	// Frame is the spawn frame index.
	Frame int
	// Count is how many objects appear.
	Count int
}

// Arrivals implements ArrivalProcess.
func (b Burst) Arrivals(frame int, _ float64, _ *rand.Rand) int {
	if frame == b.Frame {
		return b.Count
	}
	return 0
}

func samplePoisson(mean float64, rng *rand.Rand) int {
	// A NaN mean would never end the loop below (p <= NaN is false).
	if !(mean > 0) {
		return 0
	}
	// Knuth's algorithm; mean is << 1 per frame in all our workloads.
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Route is a path plus its traffic: objects spawn per the arrival process
// and travel the path at a per-object randomized speed.
type Route struct {
	// Path is the route geometry.
	Path *Path
	// Speed is the nominal travel speed (m/s).
	Speed float64
	// SpeedJitter is the relative std-dev of per-object speed (default
	// 0.1).
	SpeedJitter float64
	// Arrivals drives object spawning.
	Arrivals ArrivalProcess
	// HeadwayMin is the minimum spawn gap in metres to the previous
	// vehicle on the route (default 6).
	HeadwayMin float64
}

// vehicleTypes are the sampled physical classes (car, SUV, truck) with
// rough AIC21-like proportions.
var vehicleTypes = []struct {
	dims   Dims
	weight float64
}{
	{Dims{W: 1.8, L: 4.5, H: 1.5}, 0.65}, // car
	{Dims{W: 2.0, L: 5.0, H: 1.9}, 0.25}, // SUV / van
	{Dims{W: 2.5, L: 8.0, H: 3.2}, 0.10}, // truck / bus
}

func sampleDims(rng *rand.Rand) Dims {
	r := rng.Float64()
	for _, vt := range vehicleTypes {
		if r < vt.weight {
			d := vt.dims
			j := 1 + rng.NormFloat64()*0.05
			return Dims{W: d.W * j, L: d.L * j, H: d.H * j}
		}
		r -= vt.weight
	}
	return vehicleTypes[0].dims
}

// World is the full simulated deployment: routes, cameras, and timing.
type World struct {
	// Routes carry the traffic.
	Routes []Route
	// Cameras observe the scene.
	Cameras []*Camera
	// FPS is the camera sampling rate (the paper uses 10).
	FPS float64
	// Seed drives all stochastic choices.
	Seed int64
	// OcclusionFrac enables dynamic occlusions: an object whose projected
	// box is covered at least this fraction by a closer object's box is
	// invisible to that camera. 0 disables occlusion (the default); the
	// paper's §V "dynamic occlusion" experiments use ~0.6.
	OcclusionFrac float64
}

// Validate checks the world configuration.
func (w *World) Validate() error {
	if len(w.Routes) == 0 {
		return fmt.Errorf("scene: world has no routes")
	}
	if len(w.Cameras) == 0 {
		return fmt.Errorf("scene: world has no cameras")
	}
	// A NaN compares false with everything, so each bound below is
	// written to fail on one: a NaN frame rate would otherwise pass and
	// hang Run in its arrival sampling.
	if !finite(w.FPS) || w.FPS <= 0 {
		return fmt.Errorf("scene: fps %v must be positive and finite", w.FPS)
	}
	if !(w.OcclusionFrac >= 0 && w.OcclusionFrac <= 1) {
		return fmt.Errorf("scene: occlusion fraction %v must be in [0, 1]", w.OcclusionFrac)
	}
	for i, r := range w.Routes {
		if r.Path == nil {
			return fmt.Errorf("scene: route %d has nil path", i)
		}
		for _, f := range []struct {
			name string
			v    float64
		}{{"speed", r.Speed}, {"speed jitter", r.SpeedJitter}, {"min headway", r.HeadwayMin}} {
			if !finite(f.v) {
				return fmt.Errorf("scene: route %d %s %v must be finite", i, f.name, f.v)
			}
		}
		if r.Speed <= 0 {
			return fmt.Errorf("scene: route %d speed %v must be positive", i, r.Speed)
		}
		if r.Arrivals == nil {
			return fmt.Errorf("scene: route %d has nil arrival process", i)
		}
		if a, ok := r.Arrivals.(interface{ validate() error }); ok {
			if err := a.validate(); err != nil {
				return fmt.Errorf("scene: route %d %w", i, err)
			}
		}
	}
	for _, c := range w.Cameras {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Observation is one camera's view of one object at one frame.
type Observation struct {
	// ObjectID is the world-unique object identity (ground truth; the
	// analytics pipeline must not use it for matching, only for scoring).
	ObjectID int
	// Box is the projected pixel bounding box.
	Box geom.Rect
}

// FrameTruth is the full ground truth for a single frame.
type FrameTruth struct {
	// Index is the frame number.
	Index int
	// Objects are all live objects, whether or not any camera sees them.
	Objects []ObjectState
	// PerCamera has, for each camera (same order as World.Cameras), the
	// objects visible to it with their pixel boxes.
	PerCamera [][]Observation
}

// VisibleObjectIDs returns the set of objects visible to at least one
// camera this frame — the denominator of the paper's object recall.
func (f *FrameTruth) VisibleObjectIDs() map[int]bool {
	out := make(map[int]bool)
	f.AddVisibleObjectIDs(out)
	return out
}

// AddVisibleObjectIDs adds the frame's visible objects to a set the caller
// owns (and may reuse from frame to frame after clearing it).
func (f *FrameTruth) AddVisibleObjectIDs(ids map[int]bool) {
	for _, obs := range f.PerCamera {
		for _, o := range obs {
			ids[o.ObjectID] = true
		}
	}
}

// Trace is a completed simulation: per-frame ground truth plus the camera
// roster that produced it.
type Trace struct {
	// FPS is the frame rate the trace was generated at.
	FPS float64
	// Cameras are the world's cameras, for projection bookkeeping.
	Cameras []*Camera
	// Frames are the per-frame ground truths, in order.
	Frames []FrameTruth
}

// vehicle is the internal per-object simulation state.
type vehicle struct {
	id         int
	route      int
	spawnFrame int
	speed      float64
	dims       Dims
	offset     float64 // initial arc-length offset (headway stacking)
}

// Run simulates numFrames frames and returns the trace. It is
// deterministic for a fixed (world, numFrames) pair.
func (w *World) Run(numFrames int) (*Trace, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if numFrames <= 0 {
		return nil, fmt.Errorf("scene: numFrames %d must be positive", numFrames)
	}
	rng := rand.New(rand.NewSource(w.Seed*6364136223846793005 + 1442695040888963407))

	trace := &Trace{FPS: w.FPS, Cameras: w.Cameras, Frames: make([]FrameTruth, 0, numFrames)}
	var live []*vehicle
	nextID := 1
	// The frame's lists are gathered in buffers reused across frames and
	// stored as exact-size copies: a trace is kept whole for the length of
	// a run, so append's spare capacity (a quarter of it) would be too.
	// All of a frame's camera lists are cut from one such copy.
	type proj struct {
		obs  Observation
		dist float64
	}
	var (
		objs  []ObjectState
		projs = make([][]proj, len(w.Cameras))
		seen  []Observation
		ends  = make([]int, len(w.Cameras))
		sh    shape
	)
	poses := make([]pose, len(w.Cameras))
	for ci, cam := range w.Cameras {
		poses[ci] = cam.pose()
	}
	grid := newCamGrid(w.Cameras)
	for frame := 0; frame < numFrames; frame++ {
		// Spawns.
		for ri := range w.Routes {
			r := &w.Routes[ri]
			n := r.Arrivals.Arrivals(frame, w.FPS, rng)
			for k := 0; k < n; k++ {
				jitter := r.SpeedJitter
				if jitter <= 0 {
					jitter = 0.1
				}
				speed := r.Speed * (1 + rng.NormFloat64()*jitter)
				if speed < r.Speed*0.3 {
					speed = r.Speed * 0.3
				}
				headway := r.HeadwayMin
				if headway <= 0 {
					headway = 6
				}
				v := &vehicle{
					id:         nextID,
					route:      ri,
					spawnFrame: frame,
					speed:      speed,
					dims:       sampleDims(rng),
				}
				// Enforce headway: if another vehicle on this route is
				// still near the route start, hold this one back by
				// spawning it with a negative offset (it enters later).
				for _, u := range live {
					if u.route != ri {
						continue
					}
					ud := u.distAt(frame, w.FPS)
					if ud-v.offset < headway {
						v.offset = ud - headway
					}
				}
				nextID++
				live = append(live, v)
			}
		}

		// Advance and collect states.
		ft := FrameTruth{Index: frame}
		objs = objs[:0]
		survivors := live[:0]
		for _, v := range live {
			d := v.distAt(frame, w.FPS)
			if d < 0 {
				// Held back by headway; not yet in the world.
				survivors = append(survivors, v)
				continue
			}
			pos, heading, ok := w.Routes[v.route].Path.PosAt(d)
			if !ok {
				continue // left the world
			}
			survivors = append(survivors, v)
			objs = append(objs, ObjectState{
				ID:      v.id,
				Pos:     pos,
				Heading: heading,
				Speed:   v.speed,
				Dims:    v.dims,
			})
		}
		live = survivors
		ft.Objects = exactCopy(objs)

		// Project each object for the cameras in reach, then apply
		// occlusion per camera if modelled. Objects are the outer loop,
		// so each camera's list keeps their order.
		for ci := range projs {
			projs[ci] = projs[ci][:0]
		}
		for _, s := range ft.Objects {
			cams := grid.near(s.Pos)
			if len(cams) == 0 {
				continue
			}
			sh.of(s)
			for _, ci := range cams {
				cam := poses[ci]
				box, dist, ok := cam.project(&sh)
				if !ok {
					continue
				}
				if w.OcclusionFrac > 0 && cam.MaxRange == 0 {
					dist = s.Pos.Dist(cam.Pos)
				}
				projs[ci] = append(projs[ci], proj{
					obs:  Observation{ObjectID: s.ID, Box: box},
					dist: dist,
				})
			}
		}
		seen = seen[:0]
		for ci, ps := range projs {
			if w.OcclusionFrac > 0 {
				// Nearer objects can hide farther ones: an object is
				// dropped when a strictly closer box covers enough of it.
				for i := 0; i < len(ps); i++ {
					a := &ps[i]
					hidden := false
					for j := range ps {
						b := &ps[j]
						if i == j || b.dist >= a.dist {
							continue
						}
						area := a.obs.Box.Area()
						if area <= 0 {
							continue
						}
						if a.obs.Box.Intersect(b.obs.Box).Area()/area >= w.OcclusionFrac {
							hidden = true
							break
						}
					}
					if !hidden {
						seen = append(seen, a.obs)
					}
				}
			} else {
				for _, p := range ps {
					seen = append(seen, p.obs)
				}
			}
			ends[ci] = len(seen)
		}
		all := exactCopy(seen)
		ft.PerCamera = make([][]Observation, len(w.Cameras))
		start := 0
		for ci, end := range ends {
			if end > start {
				ft.PerCamera[ci] = all[start:end:end]
			}
			start = end
		}
		trace.Frames = append(trace.Frames, ft)
	}
	return trace, nil
}

// exactCopy returns a copy of s with no spare capacity, nil when s is
// empty.
func exactCopy[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// camGrid is a static index of the cameras that may see a ground
// position: square cells, each listing in ascending order every camera
// whose range square meets it. A camera with no range limit, or whose
// square is not finite, is in every cell, and a position off the grid or
// not finite gets every camera. A list thus holds every camera whose
// range test can pass at a position, so World.Run projects an object for
// its cell's cameras alone and gets the boxes it would get for all.
type camGrid struct {
	x0, y0, size float64
	cols, rows   int
	cells        [][]int // row-major; nil when there is no grid
	all          []int
}

// gridCellsPerCamera bounds the grid at this many cells a camera: cells
// double in size until it holds, so cameras far apart cost no more than
// cameras side by side.
const gridCellsPerCamera = 16

// newCamGrid builds the grid of cams. The cell size is the largest range,
// so a range square meets at most three cells a side.
func newCamGrid(cams []*Camera) *camGrid {
	g := &camGrid{all: make([]int, len(cams))}
	squares := make([]geom.Rect, len(cams))
	boxed := make([]bool, len(cams))
	bounds := geom.Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	size := 0.0
	for ci, c := range cams {
		g.all[ci] = ci
		r := c.MaxRange
		if !(r > 0) {
			continue
		}
		// project keeps an object whose legs, each rounded once, are at
		// most r, so its exact offset is at most r(1+2^-52) a side. The
		// pad covers that and the rounding of the square's edges. Its
		// conversion keeps the edges' sums from fusing with it.
		pad := float64((math.Abs(c.Pos.X) + math.Abs(c.Pos.Y) + r) * 0x1p-50)
		sq := geom.Rect{
			MinX: c.Pos.X - r - pad, MinY: c.Pos.Y - r - pad,
			MaxX: c.Pos.X + r + pad, MaxY: c.Pos.Y + r + pad,
		}
		if !finite(sq.MinX) || !finite(sq.MinY) || !finite(sq.MaxX) || !finite(sq.MaxY) {
			continue
		}
		squares[ci], boxed[ci] = sq, true
		bounds = geom.Rect{
			MinX: min(bounds.MinX, sq.MinX), MinY: min(bounds.MinY, sq.MinY),
			MaxX: max(bounds.MaxX, sq.MaxX), MaxY: max(bounds.MaxY, sq.MaxY),
		}
		size = max(size, r)
	}
	width, height := bounds.MaxX-bounds.MinX, bounds.MaxY-bounds.MinY
	if size == 0 || !finite(width) || !finite(height) {
		return g
	}
	for (math.Floor(width/size)+1)*(math.Floor(height/size)+1) > float64(gridCellsPerCamera*len(cams)) {
		size *= 2
	}
	g.x0, g.y0, g.size = bounds.MinX, bounds.MinY, size
	g.cols, g.rows = int(width/size)+1, int(height/size)+1
	g.cells = make([][]int, g.cols*g.rows)
	for ci := range cams {
		if !boxed[ci] {
			for k := range g.cells {
				g.cells[k] = append(g.cells[k], ci)
			}
			continue
		}
		// An edge's cell is its offset over the size, rounded down: every
		// step is monotone, so a position inside the square falls in a
		// cell between its corners' cells.
		i0, j0 := int((squares[ci].MinX-g.x0)/size), int((squares[ci].MinY-g.y0)/size)
		i1, j1 := int((squares[ci].MaxX-g.x0)/size), int((squares[ci].MaxY-g.y0)/size)
		for j := j0; j <= j1; j++ {
			for i := i0; i <= i1; i++ {
				g.cells[j*g.cols+i] = append(g.cells[j*g.cols+i], ci)
			}
		}
	}
	return g
}

// near returns the cameras listed for pos.
func (g *camGrid) near(pos geom.Point) []int {
	if g.cells == nil {
		return g.all
	}
	fx, fy := (pos.X-g.x0)/g.size, (pos.Y-g.y0)/g.size
	if !(fx >= 0 && fx < float64(g.cols) && fy >= 0 && fy < float64(g.rows)) {
		return g.all
	}
	return g.cells[int(fy)*g.cols+int(fx)]
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// distAt returns the vehicle's arc-length position at the given frame.
func (v *vehicle) distAt(frame int, fps float64) float64 {
	return v.offset + v.speed*float64(frame-v.spawnFrame)/fps
}

// SplitTrain splits the trace into train/test halves, following the
// paper's protocol ("we use half length of the video to train the
// cross-camera object association model ... and use the remaining half
// for testing").
func (t *Trace) SplitTrain() (train, test *Trace) {
	mid := len(t.Frames) / 2
	train = &Trace{FPS: t.FPS, Cameras: t.Cameras, Frames: t.Frames[:mid]}
	test = &Trace{FPS: t.FPS, Cameras: t.Cameras, Frames: t.Frames[mid:]}
	return train, test
}

// ObjectCounts returns, per camera, the time series of visible-object
// counts sampled every sampleEvery frames — the data behind the paper's
// Fig. 2.
func (t *Trace) ObjectCounts(sampleEvery int) [][]int {
	if sampleEvery <= 0 {
		sampleEvery = 1
	}
	out := make([][]int, len(t.Cameras))
	for fi := 0; fi < len(t.Frames); fi += sampleEvery {
		for ci := range t.Cameras {
			out[ci] = append(out[ci], len(t.Frames[fi].PerCamera[ci]))
		}
	}
	return out
}

// CoObservation returns the pairwise co-observation counts of the
// trace: counts[i][j] is the number of (frame, object) pairs observed
// by both camera i and camera j in the same frame. The matrix is
// symmetric with a zero diagonal. It is the ground-truth input to the
// fleet's overlap graph (shard.FromCoObservation): two cameras that
// never co-observe an object never need to share a scheduling round.
func (t *Trace) CoObservation() [][]int {
	n := len(t.Cameras)
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	for fi := range t.Frames {
		f := &t.Frames[fi]
		// seen[id] lists the cameras observing object id this frame.
		seen := make(map[int][]int)
		for ci := range f.PerCamera {
			for _, o := range f.PerCamera[ci] {
				seen[o.ObjectID] = append(seen[o.ObjectID], ci)
			}
		}
		for _, cams := range seen {
			for a := 0; a < len(cams); a++ {
				for b := a + 1; b < len(cams); b++ {
					counts[cams[a]][cams[b]]++
					counts[cams[b]][cams[a]]++
				}
			}
		}
	}
	return counts
}
