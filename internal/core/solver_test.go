package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mvs/internal/profile"
)

// randomFleet draws m cameras of mixed device classes; some profiles are
// measured with noise, so batch limits and latencies differ between
// cameras of one class as well.
func randomFleet(rng *rand.Rand, m int, measured []*profile.Profile) []CameraSpec {
	classes := []profile.DeviceClass{profile.JetsonNano, profile.JetsonTX2, profile.JetsonXavier}
	cs := make([]CameraSpec, m)
	for i := range cs {
		p := profile.Derived(classes[rng.Intn(len(classes))])
		if rng.Intn(3) == 0 {
			p = measured[rng.Intn(len(measured))]
		}
		cs[i] = CameraSpec{Index: i, Profile: p}
	}
	return cs
}

// randomObjects draws n objects with coverage sets of 1..m distinct
// cameras in random order and a size per camera. IDs are distinct but
// ascending only one time in three. Few size classes make batches fill
// and ties common.
func randomObjects(rng *rand.Rand, m, n int) []ObjectSpec {
	sizes := []int{64, 128, 256, 512}[:1+rng.Intn(4)]
	ids := rng.Perm(2 * n)
	if rng.Intn(3) == 0 {
		for i := range ids {
			ids[i] = i
		}
	}
	objects := make([]ObjectSpec, n)
	for i := range objects {
		cover := rng.Perm(m)[:1+rng.Intn(m)]
		sz := make(map[int]int, len(cover))
		for _, c := range cover {
			sz[c] = sizes[rng.Intn(len(sizes))]
		}
		objects[i] = ObjectSpec{ID: ids[i] + 1, Coverage: cover, Size: sz}
	}
	return objects
}

func measuredProfiles(t testing.TB) []*profile.Profile {
	var out []*profile.Profile
	for seed, class := range []profile.DeviceClass{profile.JetsonNano, profile.JetsonTX2, profile.JetsonXavier} {
		p, err := (&profile.Profiler{Runs: 20, Seed: int64(seed)}).Measure(class, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestSolverMeetsSpecOnRandomInstances holds the flat solvers to the
// specification (spec_test.go) on 1200 seeded instances of 1–8 cameras,
// each solved on one reused Solver by Central, Central without batching,
// and CentralRedundant at redundancy 2 and 3, slack 1.3.
func TestSolverMeetsSpecOnRandomInstances(t *testing.T) {
	measured := measuredProfiles(t)
	var w Solver
	for seed := int64(0); seed < 1200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		cs := randomFleet(rng, m, measured)
		objects := randomObjects(rng, m, rng.Intn(60))
		for _, run := range []struct {
			opts       CentralOptions
			redundancy int
		}{{CentralOptions{}, 1}, {CentralOptions{DisableBatching: true}, 1}, {CentralOptions{}, 2}, {CentralOptions{}, 3}} {
			if err := meetsSpec(&w, cs, objects, run.opts, run.redundancy, 1.3); err != nil {
				t.Fatalf("seed %d, %+v, redundancy %d: %v", seed, run.opts, run.redundancy, err)
			}
		}
	}
}

// TestCameraLatenciesMeetSpec prices random feasible assignments on the
// Solver and by Definition 1 (specLatencies).
func TestCameraLatenciesMeetSpec(t *testing.T) {
	measured := measuredProfiles(t)
	var w Solver
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		cs := randomFleet(rng, m, measured)
		objects := randomObjects(rng, m, rng.Intn(60))
		in := NewInstance(objects)
		if err := w.prepare(cs, in); err != nil {
			t.Fatal(err)
		}
		assign := make([]int, len(objects))
		for i := range objects {
			assign[i] = objects[i].Coverage[rng.Intn(len(objects[i].Coverage))]
		}
		includeFull := seed%2 == 0
		want := specLatencies(cs, objects, assign, includeFull)
		got, err := w.cameraLatencies(cs, in, assign, includeFull)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: latencies %v, specification %v", seed, got, want)
			}
		}
	}
}

// TestSolverReuseAllocatesNothing is the budget: once a Solver has solved
// an instance the size of a corridor round (~100 objects, 16 cameras), it
// solves it again without allocating, with or without redundancy, and an
// Instance refilled to the same size allocates nothing either.
func TestSolverReuseAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cs := randomFleet(rng, 16, measuredProfiles(t))
	objects := make([]ObjectSpec, 100)
	for i := range objects {
		// Corridor-like coverage: one to three neighbouring cameras.
		first := rng.Intn(16)
		var cover []int
		for c := first; c < min(first+1+rng.Intn(3), 16); c++ {
			cover = append(cover, c)
		}
		sz := make(map[int]int, len(cover))
		for _, c := range cover {
			sz[c] = []int{64, 128, 256}[rng.Intn(3)]
		}
		objects[i] = ObjectSpec{ID: i + 1, Coverage: cover, Size: sz}
	}
	in := NewInstance(objects)
	var w Solver
	if _, err := w.CentralRedundant(cs, in, 2, 1.3); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := w.Central(cs, in, CentralOptions{}); err != nil {
			panic(err)
		}
	}); n != 0 {
		t.Errorf("Central on a reused Solver: %v allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := w.CentralRedundant(cs, in, 2, 1.3); err != nil {
			panic(err)
		}
	}); n != 0 {
		t.Errorf("CentralRedundant on a reused Solver: %v allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		in.Reset()
		for i := range objects {
			in.Add(objects[i].ID)
			for _, c := range objects[i].Coverage {
				in.Cover(c, objects[i].Size[c])
			}
		}
	}); n != 0 {
		t.Errorf("refilling an Instance: %v allocs/run, want 0", n)
	}
}

// meetsSpec solves objects on w, over NewInstance(objects), and reports
// where it departs from specSolve, including in whether the instance is
// rejected.
func meetsSpec(w *Solver, cams []CameraSpec, objects []ObjectSpec, opts CentralOptions, redundancy int, slack float64) error {
	want, wantErr := specSolve(cams, objects, opts, redundancy, slack)
	var got *Solution
	var err error
	if redundancy > 1 {
		got, err = w.CentralRedundant(cams, NewInstance(objects), redundancy, slack)
	} else {
		got, err = w.Central(cams, NewInstance(objects), opts)
	}
	if (err != nil) != (wantErr != nil) {
		return fmt.Errorf("error %v, specification's error %v", err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(solved(got, len(objects)), solved(want, len(objects))) {
		return fmt.Errorf("solved %+v,\nspecification %+v", solved(got, len(objects)), solved(want, len(objects)))
	}
	return nil
}

// solved is a solution of n objects as one comparable value.
func solved(s *Solution, n int) any {
	extra := make([][]int, n)
	for j := range extra {
		extra[j] = append([]int{}, s.Extra(j)...)
	}
	return struct {
		Assign, Priority []int
		Extra            [][]int
		Latencies        []time.Duration
	}{s.Assign, s.Priority, extra, s.Latencies}
}
