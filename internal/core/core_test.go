package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mvs/internal/profile"
)

func cams(classes ...profile.DeviceClass) []CameraSpec {
	out := make([]CameraSpec, len(classes))
	for i, c := range classes {
		out[i] = CameraSpec{Index: i, Profile: profile.Derived(c)}
	}
	return out
}

// obj builds an object with the same target size on every covering
// camera.
func obj(id, size int, coverage ...int) ObjectSpec {
	sizes := make(map[int]int, len(coverage))
	for _, c := range coverage {
		sizes[c] = size
	}
	return ObjectSpec{ID: id, Coverage: coverage, Size: sizes}
}

// derivedCams draws m cameras of the three derived device classes.
func derivedCams(rng *rand.Rand, m int) []CameraSpec {
	classes := []profile.DeviceClass{profile.JetsonNano, profile.JetsonTX2, profile.JetsonXavier}
	cs := make([]CameraSpec, m)
	for i := range cs {
		cs[i] = CameraSpec{Index: i, Profile: profile.Derived(classes[rng.Intn(3)])}
	}
	return cs
}

// coveredObjects draws n objects, each seen by 1..m distinct cameras in
// random order at one of the four sizes per camera.
func coveredObjects(rng *rand.Rand, m, n int) []ObjectSpec {
	objects := make([]ObjectSpec, n)
	for i := range objects {
		k := 1 + rng.Intn(m)
		perm := rng.Perm(m)[:k]
		sz := make(map[int]int, k)
		for _, c := range perm {
			sz[c] = []int{64, 128, 256, 512}[rng.Intn(4)]
		}
		objects[i] = ObjectSpec{ID: i + 1, Coverage: perm, Size: sz}
	}
	return objects
}

// validate applies the per-object rules to one object on a roster of
// numCams cameras.
func validate(o ObjectSpec, numCams int) error {
	return NewInstance([]ObjectSpec{o}).check(0, numCams)
}

func TestObjectSpecValidate(t *testing.T) {
	good := obj(1, 64, 0, 1)
	if err := validate(good, 2); err != nil {
		t.Fatal(err)
	}
	if err := validate(ObjectSpec{ID: 1}, 2); err == nil {
		t.Fatal("empty coverage accepted")
	}
	bad := obj(1, 64, 0, 5)
	if err := validate(bad, 2); err == nil {
		t.Fatal("out-of-range camera accepted")
	}
	dup := ObjectSpec{ID: 1, Coverage: []int{0, 0}, Size: map[int]int{0: 64}}
	if err := validate(dup, 2); err == nil {
		t.Fatal("duplicate coverage accepted")
	}
	noSize := ObjectSpec{ID: 1, Coverage: []int{0}, Size: map[int]int{}}
	if err := validate(noSize, 2); err == nil {
		t.Fatal("missing size accepted")
	}
	for _, err := range []error{validate(ObjectSpec{ID: 1}, 2), validate(bad, 2), validate(dup, 2), validate(noSize, 2)} {
		if !errors.Is(err, ErrInvalidInstance) {
			t.Fatalf("%v does not wrap ErrInvalidInstance", err)
		}
	}
}

func TestCheckFeasible(t *testing.T) {
	in := NewInstance([]ObjectSpec{obj(1, 64, 0), obj(2, 64, 0, 1)})
	if err := CheckFeasible(in, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := CheckFeasible(in, []int{0}); err == nil {
		t.Fatal("unassigned object accepted")
	}
	if err := CheckFeasible(in, []int{0, -1}); err == nil {
		t.Fatal("unassigned object accepted")
	}
	if err := CheckFeasible(in, []int{1, 1}); err == nil {
		t.Fatal("out-of-coverage assignment accepted")
	}
}

func TestCameraLatenciesHandComputed(t *testing.T) {
	cs := cams(profile.JetsonXavier)
	p := cs[0].Profile
	// 17 objects of size 64 on one Xavier: ceil(17/16)=2 batches.
	objects := make([]ObjectSpec, 17)
	a := make([]int, len(objects))
	for i := range objects {
		objects[i] = obj(i+1, 64, 0)
	}
	in := NewInstance(objects)
	var w Solver
	if err := w.prepare(cs, in); err != nil {
		t.Fatal(err)
	}
	lat, err := w.cameraLatencies(cs, in, a, false)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * p.BatchLatency[64]
	if lat[0] != want {
		t.Fatalf("lat = %v want %v", lat[0], want)
	}
	latFull, err := w.cameraLatencies(cs, in, a, true)
	if err != nil {
		t.Fatal(err)
	}
	if latFull[0] != want+p.FullFrame {
		t.Fatalf("latFull = %v", latFull[0])
	}
}

func TestSystemLatency(t *testing.T) {
	if SystemLatency(nil) != 0 {
		t.Fatal("empty != 0")
	}
	if got := SystemLatency([]time.Duration{3, 9, 5}); got != 9 {
		t.Fatalf("max = %v", got)
	}
}

func TestCentralSingleCameraObjects(t *testing.T) {
	// Objects visible to only one camera have deterministic assignments.
	cs := cams(profile.JetsonXavier, profile.JetsonNano)
	objects := []ObjectSpec{obj(1, 64, 0), obj(2, 128, 1), obj(3, 64, 0)}
	sol, err := Central(cs, objects, CentralOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Assign[0] != 0 || sol.Assign[2] != 0 || sol.Assign[1] != 1 {
		t.Fatalf("assign = %v", sol.Assign)
	}
	if err := CheckFeasible(NewInstance(objects), sol.Assign); err != nil {
		t.Fatal(err)
	}
}

func TestCentralPrefersIncompleteBatch(t *testing.T) {
	// Camera 0 (Xavier) gets a single-camera object of size 512 opening a
	// batch with capacity 2. A shared object of size 512 should join that
	// incomplete batch rather than open a new one on camera 1.
	cs := cams(profile.JetsonXavier, profile.JetsonXavier)
	objects := []ObjectSpec{
		obj(1, 512, 0),    // forced to cam 0, opens 512-batch (limit 2)
		obj(2, 512, 0, 1), // shared: should join cam 0's batch
	}
	sol, err := Central(cs, objects, CentralOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Assign[1] != 0 {
		t.Fatalf("shared object not batched: assign = %v", sol.Assign)
	}
	// Latency of cam 0: full + one 512 batch; cam 1: just full.
	p := cs[0].Profile
	if sol.Latencies[0] != p.FullFrame+p.BatchLatency[512] {
		t.Fatalf("lat0 = %v", sol.Latencies[0])
	}
	if sol.Latencies[1] != p.FullFrame {
		t.Fatalf("lat1 = %v", sol.Latencies[1])
	}
}

func TestCentralOpensNewBatchOnLeastLoaded(t *testing.T) {
	// Complete batches everywhere: the next shared object must go to the
	// camera with minimum L_i + t_i^s — here the idle Xavier, not the
	// loaded one.
	cs := cams(profile.JetsonXavier, profile.JetsonXavier)
	objects := []ObjectSpec{
		obj(1, 512, 0), obj(2, 512, 0), // fill cam 0's 512 batch (limit 2)
		obj(3, 512, 0, 1), // must open a new batch: cam 1 cheaper
	}
	sol, err := Central(cs, objects, CentralOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Assign[2] != 1 {
		t.Fatalf("assign = %v", sol.Assign)
	}
}

func TestCentralAccountsHeterogeneity(t *testing.T) {
	// A shared object must open its first batch on the Xavier, not the
	// Nano, because min L_i + t_i^s picks the fast device.
	cs := cams(profile.JetsonNano, profile.JetsonXavier)
	objects := []ObjectSpec{obj(1, 256, 0, 1)}
	sol, err := Central(cs, objects, CentralOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Assign[0] != 1 {
		t.Fatalf("assign = %v", sol.Assign)
	}
}

func TestCentralOrdersByCoverageFlexibility(t *testing.T) {
	// Single-camera objects load camera 0 first; flexible objects then
	// avoid it. If flexible objects were assigned first they might land
	// on camera 0 and overload it.
	cs := cams(profile.JetsonXavier, profile.JetsonXavier)
	var objects []ObjectSpec
	id := 1
	for i := 0; i < 16; i++ { // fill one 64-batch on cam 0 exactly
		objects = append(objects, obj(id, 64, 0))
		id++
	}
	shared := obj(id, 64, 0, 1)
	objects = append([]ObjectSpec{shared}, objects...) // shared listed first
	sol, err := Central(cs, objects, CentralOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The shared object is processed last (|C|=2) and by then cam 0's
	// batch is complete, so it opens on cam 1.
	if sol.Assign[0] != 1 { // the shared object is listed first
		t.Fatalf("assign = %v", sol.Assign)
	}
}

func TestCentralBalancesLoad(t *testing.T) {
	// Many shared objects across 3 identical cameras: latencies must end
	// up close to each other.
	cs := cams(profile.JetsonTX2, profile.JetsonTX2, profile.JetsonTX2)
	var objects []ObjectSpec
	for i := 0; i < 30; i++ {
		objects = append(objects, obj(i+1, 128, 0, 1, 2))
	}
	sol, err := Central(cs, objects, CentralOptions{})
	if err != nil {
		t.Fatal(err)
	}
	min, max := sol.Latencies[0], sol.Latencies[0]
	for _, l := range sol.Latencies {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	p := cs[0].Profile
	if max-min > 2*p.BatchLatency[128] {
		t.Fatalf("imbalance %v vs batch %v (lat=%v)", max-min, p.BatchLatency[128], sol.Latencies)
	}
}

func TestCentralEmptyObjects(t *testing.T) {
	cs := cams(profile.JetsonNano)
	sol, err := Central(cs, nil, CentralOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Assign) != 0 {
		t.Fatalf("assign = %v", sol.Assign)
	}
	if sol.Latencies[0] != cs[0].Profile.FullFrame {
		t.Fatalf("lat = %v", sol.Latencies)
	}
}

func TestCentralInstanceValidation(t *testing.T) {
	if _, err := Central(nil, nil, CentralOptions{}); err == nil {
		t.Fatal("no cameras accepted")
	}
	cs := cams(profile.JetsonNano)
	if _, err := Central(cs, []ObjectSpec{obj(1, 64, 3)}, CentralOptions{}); err == nil {
		t.Fatal("bad coverage accepted")
	}
	if _, err := Central([]CameraSpec{{}}, nil, CentralOptions{}); err == nil {
		t.Fatal("nil profile accepted")
	}
}

func TestCentralFeasibilityProperty(t *testing.T) {
	// Random instances: Central always returns a feasible assignment and
	// latencies consistent with cameraLatencies.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := derivedCams(rng, 2+rng.Intn(4))
		objects := coveredObjects(rng, len(cs), rng.Intn(25))
		sol, err := Central(cs, objects, CentralOptions{})
		if err != nil {
			return false
		}
		in := NewInstance(objects)
		if CheckFeasible(in, sol.Assign) != nil {
			return false
		}
		var w Solver
		if w.prepare(cs, in) != nil {
			return false
		}
		lat, err := w.cameraLatencies(cs, in, sol.Assign, true)
		if err != nil {
			return false
		}
		for i := range lat {
			if lat[i] != sol.Latencies[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestCentralNearOptimalOnSmallInstances(t *testing.T) {
	// Against brute force on small random instances, BALB's system
	// latency must stay within 1.6x of optimal (it is a heuristic, but a
	// good one; the paper's evaluation relies on it being near-balanced).
	rng := rand.New(rand.NewSource(99))
	worst := 1.0
	for trial := 0; trial < 40; trial++ {
		cs := derivedCams(rng, 2+rng.Intn(2))
		objects := coveredObjects(rng, len(cs), 1+rng.Intn(7))
		opt, err := BruteForce(cs, NewInstance(objects), 0)
		if err != nil {
			t.Fatal(err)
		}
		balb, err := Central(cs, objects, CentralOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if balb.System() < opt.System() {
			t.Fatalf("trial %d: BALB %v beat optimal %v", trial, balb.System(), opt.System())
		}
		ratio := float64(balb.System()) / float64(opt.System())
		if ratio > worst {
			worst = ratio
		}
		if ratio > 1.6 {
			t.Fatalf("trial %d: BALB/OPT = %.3f", trial, ratio)
		}
	}
	t.Logf("worst BALB/OPT ratio over 40 instances: %.3f", worst)
}

func TestBruteForceStateLimit(t *testing.T) {
	cs := cams(profile.JetsonXavier, profile.JetsonXavier)
	objects := make([]ObjectSpec, 30)
	for i := range objects {
		objects[i] = obj(i+1, 64, 0, 1)
	}
	if _, err := BruteForce(cs, NewInstance(objects), 1000); err == nil {
		t.Fatal("state explosion not detected")
	}
}

func TestBruteForceEmpty(t *testing.T) {
	cs := cams(profile.JetsonXavier)
	sol, err := BruteForce(cs, &Instance{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Assign) != 0 {
		t.Fatalf("assign = %v", sol.Assign)
	}
}

func TestBatchingAblation(t *testing.T) {
	// With batching disabled, BALB charges one batch per object, so 16
	// size-64 objects on one Xavier cost 16 batch latencies instead of 1.
	cs := cams(profile.JetsonXavier)
	var objects []ObjectSpec
	for i := 0; i < 16; i++ {
		objects = append(objects, obj(i+1, 64, 0))
	}
	withBatch, err := Central(cs, objects, CentralOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noBatch, err := Central(cs, objects, CentralOptions{DisableBatching: true})
	if err != nil {
		t.Fatal(err)
	}
	// Note: reported latencies use the internal accounting, which charges
	// per opened batch.
	p := cs[0].Profile
	if withBatch.Latencies[0] != p.FullFrame+p.BatchLatency[64] {
		t.Fatalf("batched lat = %v", withBatch.Latencies[0])
	}
	if noBatch.Latencies[0] != p.FullFrame+16*p.BatchLatency[64] {
		t.Fatalf("unbatched lat = %v", noBatch.Latencies[0])
	}
}

func TestPriorityFromLatencies(t *testing.T) {
	got := priorityFromLatencies(nil, []time.Duration{30, 10, 20})
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority = %v", got)
		}
	}
	// Ties break by index (stable).
	got = priorityFromLatencies(got, []time.Duration{10, 10})
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("tie priority = %v", got)
	}
}

func TestDistributedPolicy(t *testing.T) {
	p, err := NewDistributedPolicy([]int{2, 0, 1}) // cam 2 highest priority
	if err != nil {
		t.Fatal(err)
	}
	owner, ok := p.Owner([]int{0, 1, 2})
	if !ok || owner != 2 {
		t.Fatalf("owner = %d %v", owner, ok)
	}
	owner, ok = p.Owner([]int{0, 1})
	if !ok || owner != 0 {
		t.Fatalf("owner = %d %v", owner, ok)
	}
	if _, ok := p.Owner(nil); ok {
		t.Fatal("empty coverage had an owner")
	}
	if !p.ShouldTrack(2, []int{1, 2}) {
		t.Fatal("highest-priority camera should track")
	}
	if p.ShouldTrack(1, []int{1, 2}) {
		t.Fatal("lower-priority camera should not track")
	}
}

func TestNewDistributedPolicyValidation(t *testing.T) {
	if _, err := NewDistributedPolicy(nil); err == nil {
		t.Fatal("empty priority accepted")
	}
	if _, err := NewDistributedPolicy([]int{0, 0}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := NewDistributedPolicy([]int{0, 5}); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestDistributedConsistencyProperty(t *testing.T) {
	// Every camera computing ShouldTrack over the same coverage set must
	// agree there is exactly one tracker — the zero-communication
	// guarantee.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(5)
		perm := rng.Perm(m)
		p, err := NewDistributedPolicy(perm)
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(m)
		cover := rng.Perm(m)[:k]
		trackers := 0
		for cam := 0; cam < m; cam++ {
			if p.ShouldTrack(cam, cover) {
				trackers++
			}
		}
		return trackers == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIndependentLatencies(t *testing.T) {
	cs := cams(profile.JetsonXavier, profile.JetsonXavier)
	objects := []ObjectSpec{obj(1, 512, 0, 1), obj(2, 512, 0)}
	lat, err := IndependentLatencies(cs, NewInstance(objects), false)
	if err != nil {
		t.Fatal(err)
	}
	p := cs[0].Profile
	// Cam 0 sees both (1 batch of 2 at limit 2); cam 1 sees one.
	if lat[0] != p.BatchLatency[512] || lat[1] != p.BatchLatency[512] {
		t.Fatalf("lat = %v", lat)
	}
	// Independent tracking is never cheaper than BALB system-wide.
	sol, err := Central(cs, objects, CentralOptions{})
	if err != nil {
		t.Fatal(err)
	}
	indFull, err := IndependentLatencies(cs, NewInstance(objects), true)
	if err != nil {
		t.Fatal(err)
	}
	if SystemLatency(indFull) < sol.System() {
		t.Fatalf("independent %v beat BALB %v", SystemLatency(indFull), sol.System())
	}
}

func TestCapacityWeights(t *testing.T) {
	cs := cams(profile.JetsonNano, profile.JetsonXavier)
	w, err := CapacityWeights(cs)
	if err != nil {
		t.Fatal(err)
	}
	if w[1] <= w[0] {
		t.Fatalf("Xavier weight %v not above Nano %v", w[1], w[0])
	}
	if s := w[0] + w[1]; s < 0.999 || s > 1.001 {
		t.Fatalf("weights sum %v", s)
	}
	if _, err := CapacityWeights(nil); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestWeightedPartitionProportions(t *testing.T) {
	// 1000 units covered by cameras {0,1} with weights 0.75/0.25 split
	// roughly 3:1.
	units := make([][]int, 1000)
	for i := range units {
		units[i] = []int{0, 1}
	}
	owners, err := WeightedPartition(units, []float64{0.75, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, o := range owners {
		if o == 0 {
			count++
		}
	}
	if count < 740 || count > 760 {
		t.Fatalf("camera 0 got %d / 1000", count)
	}
}

func TestWeightedPartitionRespectsCoverage(t *testing.T) {
	units := [][]int{{1}, {0, 1}, {0}}
	owners, err := WeightedPartition(units, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if owners[0] != 1 || owners[2] != 0 {
		t.Fatalf("owners = %v", owners)
	}
	if _, err := WeightedPartition([][]int{{}}, []float64{1}); err == nil {
		t.Fatal("empty coverage accepted")
	}
	if _, err := WeightedPartition([][]int{{7}}, []float64{1}); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestWeightedPartitionDeterministic(t *testing.T) {
	units := [][]int{{0, 1}, {0, 1}, {1, 0}, {0, 1}}
	w := []float64{0.6, 0.4}
	a, err := WeightedPartition(units, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WeightedPartition(units, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic")
		}
	}
	// Units {1,0} and {0,1} share a signature.
	if a[1] == a[2] && a[1] == a[3] && a[0] == a[1] {
		t.Fatalf("no splitting happened: %v", a)
	}
}

func TestStaticPartitionIgnoresLoad(t *testing.T) {
	// SP on a Nano+Xavier pair sends ~weighted share of shared objects to
	// each, even when the Xavier is the only sensible choice for latency.
	cs := cams(profile.JetsonNano, profile.JetsonXavier)
	var objects []ObjectSpec
	for i := 0; i < 20; i++ {
		objects = append(objects, obj(i+1, 256, 0, 1))
	}
	in := NewInstance(objects)
	sp, err := StaticPartition(cs, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFeasible(in, sp.Assign); err != nil {
		t.Fatal(err)
	}
	nanoCount := 0
	for _, c := range sp.Assign {
		if c == 0 {
			nanoCount++
		}
	}
	if nanoCount == 0 {
		t.Fatal("SP sent nothing to the Nano — too clever for a static policy")
	}
	// BALB should beat SP here: the Nano's share inflates the max.
	balb, err := Central(cs, objects, CentralOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if balb.System() > sp.System() {
		t.Fatalf("BALB %v worse than SP %v", balb.System(), sp.System())
	}
}
