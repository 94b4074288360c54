// Package workload defines the evaluation scenarios: the paper's three
// testbed deployments (Table I), rebuilt on the scene simulator, plus an
// eight-camera scale scenario beyond the paper:
//
//   - S1: five cameras around a signalized traffic intersection, with
//     periodic platooned traffic (2x Xavier, 2x TX2, 1x Nano);
//   - S2: two cameras at a residential roadside with sparse traffic
//     (1x Xavier, 1x Nano);
//   - S3: three cameras at a busy fork road (1x Xavier, 1x TX2, 1x Nano),
//     with smaller view overlaps than S1/S2;
//   - S4: an eight-camera boulevard chain for scale studies (extension).
package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"mvs/internal/geom"
	"mvs/internal/profile"
	"mvs/internal/scene"
)

// Scenario bundles a simulated world with the per-camera hardware roster.
type Scenario struct {
	// Name is the scenario identifier (S1, S2, S3).
	Name string
	// Description summarizes the deployment.
	Description string
	// World generates the traffic and observations.
	World *scene.World
	// Devices lists each camera's hardware class, aligned with
	// World.Cameras (Table I).
	Devices []profile.DeviceClass
}

// Profiles returns the default latency profile of every camera.
func (s *Scenario) Profiles() []*profile.Profile {
	out := make([]*profile.Profile, len(s.Devices))
	for i, d := range s.Devices {
		out[i] = profile.Derived(d)
	}
	return out
}

// standard camera factory: an 8 m pole mount with a 0.4 rad down-tilt,
// which sees a ground band from roughly 6 m to 65 m ahead.
func cam(name string, pos geom.Point, yaw float64) *scene.Camera {
	return &scene.Camera{
		Name: name, Pos: pos, Height: 8, Yaw: yaw,
		Pitch: 0.4, Focal: 560, ImageW: 1280, ImageH: 704,
		MaxRange: 68,
	}
}

// fisheye is the wider, shorter-range camera S1 includes (the AIC21
// fisheye unit uses a 1280x960 sensor).
func fisheye(name string, pos geom.Point, yaw float64) *scene.Camera {
	return &scene.Camera{
		Name: name, Pos: pos, Height: 7, Yaw: yaw,
		Pitch: 0.5, Focal: 520, ImageW: 1280, ImageH: 960,
		MaxRange: 45,
	}
}

// S1 is the signalized intersection: four through-routes gated by a
// 40-second light cycle, five cameras facing the intersection from four
// sides plus a fisheye overview. Traffic platoons give the bursty,
// phase-shifted per-camera load of the paper's Fig. 2.
func S1(seed int64) *Scenario {
	const arm = 60.0
	northSouth := scene.MustPath(geom.Point{X: 2, Y: arm}, geom.Point{X: 2, Y: -arm})
	southNorth := scene.MustPath(geom.Point{X: -2, Y: -arm}, geom.Point{X: -2, Y: arm})
	eastWest := scene.MustPath(geom.Point{X: arm, Y: -2}, geom.Point{X: -arm, Y: -2})
	westEast := scene.MustPath(geom.Point{X: -arm, Y: 2}, geom.Point{X: arm, Y: 2})

	const cycle = 40.0
	nsGreen := scene.TrafficLight{RatePerSec: 0.45, PeriodSec: cycle, GreenStartSec: 0, GreenDurSec: 14}
	ewGreen := scene.TrafficLight{RatePerSec: 0.45, PeriodSec: cycle, GreenStartSec: 20, GreenDurSec: 14}

	world := &scene.World{
		Routes: []scene.Route{
			{Path: northSouth, Speed: 9, Arrivals: nsGreen},
			{Path: southNorth, Speed: 9, Arrivals: nsGreen},
			{Path: eastWest, Speed: 9, Arrivals: ewGreen},
			{Path: westEast, Speed: 9, Arrivals: ewGreen},
		},
		Cameras: []*scene.Camera{
			cam("s1-east", geom.Point{X: 40, Y: 0}, math.Pi),     // looks west
			cam("s1-west", geom.Point{X: -40, Y: 0}, 0),          // looks east
			cam("s1-north", geom.Point{X: 0, Y: 40}, -math.Pi/2), // looks south
			cam("s1-south", geom.Point{X: 0, Y: -40}, math.Pi/2), // looks north
			fisheye("s1-fisheye", geom.Point{X: -25, Y: 25}, -math.Pi/4),
		},
		FPS:  10,
		Seed: seed,
	}
	return &Scenario{
		Name:        "S1",
		Description: "signalized intersection, 5 cameras (2x Xavier, 2x TX2, 1x Nano)",
		World:       world,
		Devices: []profile.DeviceClass{
			profile.JetsonXavier, profile.JetsonXavier,
			profile.JetsonTX2, profile.JetsonTX2,
			profile.JetsonNano,
		},
	}
}

// S2 is the sparse residential roadside: one straight road, two cameras
// facing each other along it with a co-visible middle stretch.
func S2(seed int64) *Scenario {
	road := scene.MustPath(geom.Point{X: -70, Y: 4}, geom.Point{X: 70, Y: 4})
	reverse := scene.MustPath(geom.Point{X: 70, Y: -4}, geom.Point{X: -70, Y: -4})
	world := &scene.World{
		Routes: []scene.Route{
			{Path: road, Speed: 7, Arrivals: scene.Poisson{RatePerSec: 0.12}},
			{Path: reverse, Speed: 7, Arrivals: scene.Poisson{RatePerSec: 0.10}},
		},
		Cameras: []*scene.Camera{
			cam("s2-west", geom.Point{X: -35, Y: -8}, 0.12),
			cam("s2-east", geom.Point{X: 35, Y: 12}, math.Pi-0.12),
		},
		FPS:  10,
		Seed: seed,
	}
	return &Scenario{
		Name:        "S2",
		Description: "sparse residential roadside, 2 cameras (1x Xavier, 1x Nano)",
		World:       world,
		Devices:     []profile.DeviceClass{profile.JetsonXavier, profile.JetsonNano},
	}
}

// S3 is the busy fork: a main road splitting into two branches, two
// cameras monitoring the fork and one facing the roadside. Overlaps are
// smaller than S1/S2, so cross-camera sharing helps less (the paper's
// smallest speedup).
func S3(seed int64) *Scenario {
	forkLeft := scene.MustPath(
		geom.Point{X: 0, Y: -65}, geom.Point{X: 0, Y: -10},
		geom.Point{X: -30, Y: 45})
	forkRight := scene.MustPath(
		geom.Point{X: 4, Y: -65}, geom.Point{X: 4, Y: -10},
		geom.Point{X: 34, Y: 45})
	side := scene.MustPath(geom.Point{X: -55, Y: -30}, geom.Point{X: 55, Y: -34})

	world := &scene.World{
		Routes: []scene.Route{
			{Path: forkLeft, Speed: 8, Arrivals: scene.Poisson{RatePerSec: 0.35}},
			{Path: forkRight, Speed: 8, Arrivals: scene.Poisson{RatePerSec: 0.35}},
			{Path: side, Speed: 8, Arrivals: scene.Poisson{RatePerSec: 0.30}},
		},
		Cameras: []*scene.Camera{
			cam("s3-fork-w", geom.Point{X: -28, Y: 30}, -1.15),       // left branch, fork, upper main road
			cam("s3-fork-e", geom.Point{X: 32, Y: 30}, math.Pi+1.15), // right branch, fork, upper main road
			cam("s3-side", geom.Point{X: 0, Y: -55}, math.Pi/2),      // watches the side road and lower main road
		},
		FPS:  10,
		Seed: seed,
	}
	return &Scenario{
		Name:        "S3",
		Description: "busy fork road, 3 cameras (1x Xavier, 1x TX2, 1x Nano)",
		World:       world,
		Devices: []profile.DeviceClass{
			profile.JetsonXavier, profile.JetsonTX2, profile.JetsonNano,
		},
	}
}

// S4 is a scale scenario beyond the paper's testbed: a long boulevard
// monitored by eight cameras in an overlapping chain (alternating sides
// of the road), with device classes cycling through the fleet. It
// exercises the central stage, association, and masks at larger M, and
// is used by the scale benchmarks.
func S4(seed int64) *Scenario {
	const length = 260.0
	east := scene.MustPath(geom.Point{X: -length / 2, Y: 4}, geom.Point{X: length / 2, Y: 4})
	west := scene.MustPath(geom.Point{X: length / 2, Y: -4}, geom.Point{X: -length / 2, Y: -4})

	var cameras []*scene.Camera
	var devices []profile.DeviceClass
	classes := []profile.DeviceClass{
		profile.JetsonXavier, profile.JetsonTX2, profile.JetsonNano,
	}
	for i := 0; i < 8; i++ {
		x := -length/2 + 20 + float64(i)*32
		if i%2 == 0 {
			cameras = append(cameras, cam(fmt.Sprintf("s4-n%d", i), geom.Point{X: x, Y: 16}, -0.35))
		} else {
			cameras = append(cameras, cam(fmt.Sprintf("s4-s%d", i), geom.Point{X: x, Y: -16}, 0.35))
		}
		devices = append(devices, classes[i%len(classes)])
	}
	world := &scene.World{
		Routes: []scene.Route{
			{Path: east, Speed: 9, Arrivals: scene.Poisson{RatePerSec: 0.5}},
			{Path: west, Speed: 9, Arrivals: scene.Poisson{RatePerSec: 0.5}},
		},
		Cameras: cameras,
		FPS:     10,
		Seed:    seed,
	}
	return &Scenario{
		Name:        "S4",
		Description: "scale study: 260 m boulevard, 8 cameras in an overlapping chain",
		World:       world,
		Devices:     devices,
	}
}

// Corridor generalizes S4 to n cameras: a straight boulevard of
// 32 m camera spacing, cameras alternating sides in an overlapping
// chain, device classes cycling Xavier/TX2/Nano. Its coverage graph is
// the nearly block-diagonal shape sharding exploits — each camera
// overlaps only a few neighbours — so it is the canonical input for
// the 64-camera sharded-vs-global comparisons (docs/SCALING.md §3).
// n must be at least 2.
func Corridor(n int, seed int64) (*Scenario, error) {
	if n < 2 {
		return nil, fmt.Errorf("workload: corridor needs at least 2 cameras, got %d", n)
	}
	length := float64(n)*32 + 16
	east := scene.MustPath(geom.Point{X: -length / 2, Y: 4}, geom.Point{X: length / 2, Y: 4})
	west := scene.MustPath(geom.Point{X: length / 2, Y: -4}, geom.Point{X: -length / 2, Y: -4})

	var cameras []*scene.Camera
	var devices []profile.DeviceClass
	classes := []profile.DeviceClass{
		profile.JetsonXavier, profile.JetsonTX2, profile.JetsonNano,
	}
	for i := 0; i < n; i++ {
		x := -length/2 + 20 + float64(i)*32
		if i%2 == 0 {
			cameras = append(cameras, cam(fmt.Sprintf("c%d-n", i), geom.Point{X: x, Y: 16}, -0.35))
		} else {
			cameras = append(cameras, cam(fmt.Sprintf("c%d-s", i), geom.Point{X: x, Y: -16}, 0.35))
		}
		devices = append(devices, classes[i%len(classes)])
	}
	world := &scene.World{
		Routes: []scene.Route{
			{Path: east, Speed: 9, Arrivals: scene.Poisson{RatePerSec: 0.5}},
			{Path: west, Speed: 9, Arrivals: scene.Poisson{RatePerSec: 0.5}},
		},
		Cameras: cameras,
		FPS:     10,
		Seed:    seed,
	}
	return &Scenario{
		Name:        fmt.Sprintf("C%d", n),
		Description: fmt.Sprintf("scale corridor: %.0f m boulevard, %d cameras in an overlapping chain", length, n),
		World:       world,
		Devices:     devices,
	}, nil
}

// Islands builds k disjoint corridor deployments of per cameras each,
// offset 500 m apart so no camera pair across islands can ever
// co-observe an object and no route crosses islands. The coverage
// graph is exactly block-diagonal, which makes Islands the reference
// scenario for the sharded-equals-global determinism tests: a shard
// map with one shard per island has zero cross-shard traffic by
// construction. Camera indices are island-major (island 0's cameras
// first), matching shard.Partition's component order.
func Islands(k, per int, seed int64) (*Scenario, error) {
	if k < 1 || per < 2 {
		return nil, fmt.Errorf("workload: islands needs k >= 1 and per >= 2, got k=%d per=%d", k, per)
	}
	length := float64(per)*32 + 16
	var cameras []*scene.Camera
	var devices []profile.DeviceClass
	var routes []scene.Route
	classes := []profile.DeviceClass{
		profile.JetsonXavier, profile.JetsonTX2, profile.JetsonNano,
	}
	for is := 0; is < k; is++ {
		y := float64(is) * 500
		routes = append(routes,
			scene.Route{
				Path:  scene.MustPath(geom.Point{X: -length / 2, Y: y + 4}, geom.Point{X: length / 2, Y: y + 4}),
				Speed: 9, Arrivals: scene.Poisson{RatePerSec: 0.5},
			},
			scene.Route{
				Path:  scene.MustPath(geom.Point{X: length / 2, Y: y - 4}, geom.Point{X: -length / 2, Y: y - 4}),
				Speed: 9, Arrivals: scene.Poisson{RatePerSec: 0.5},
			},
		)
		for i := 0; i < per; i++ {
			x := -length/2 + 20 + float64(i)*32
			idx := is*per + i
			if i%2 == 0 {
				cameras = append(cameras, cam(fmt.Sprintf("i%d-c%d-n", is, i), geom.Point{X: x, Y: y + 16}, -0.35))
			} else {
				cameras = append(cameras, cam(fmt.Sprintf("i%d-c%d-s", is, i), geom.Point{X: x, Y: y - 16}, 0.35))
			}
			devices = append(devices, classes[idx%len(classes)])
		}
	}
	world := &scene.World{
		Routes:  routes,
		Cameras: cameras,
		FPS:     10,
		Seed:    seed,
	}
	return &Scenario{
		Name:        fmt.Sprintf("I%dx%d", k, per),
		Description: fmt.Sprintf("%d disjoint corridors of %d cameras each (block-diagonal coverage)", k, per),
		World:       world,
		Devices:     devices,
	}, nil
}

// ScenarioNames lists the names ByName accepts, for its error and for
// every binary's -scenario help.
const ScenarioNames = "S1, S2, S3, S4, or C<n>"

// ByName returns the named scenario (case-sensitive): S1, S2, S3, the
// extension scale scenario S4, or "C<n>" for an n-camera Corridor
// (e.g. C64).
func ByName(name string, seed int64) (*Scenario, error) {
	switch name {
	case "S1":
		return S1(seed), nil
	case "S2":
		return S2(seed), nil
	case "S3":
		return S3(seed), nil
	case "S4":
		return S4(seed), nil
	}
	if strings.HasPrefix(name, "C") {
		if n, err := strconv.Atoi(name[1:]); err == nil {
			return Corridor(n, seed)
		}
	}
	return nil, fmt.Errorf("workload: unknown scenario %q (want %s)", name, ScenarioNames)
}
