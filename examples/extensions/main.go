// Extensions: the paper's §V discussion items, implemented and measured
// on one synthetic deployment:
//
//   - redundant assignment (occlusion hedging): track each object from up
//     to 2 cameras when the latency budget allows;
//
//   - quality-aware scheduling: trade latency for larger (easier to
//     classify) views via a lambda knob;
//
//   - alternative objective: minimize total load (energy) instead of the
//     maximum latency;
//
//   - centralized-processing extension: pick the minimum set of uploading
//     cameras that covers every object.
//
//     go run ./examples/extensions
package main

import (
	"fmt"
	"log"
	"math/rand"

	"mvs/internal/core"
	"mvs/internal/profile"
)

func main() {
	classes := []profile.DeviceClass{
		profile.JetsonNano, profile.JetsonTX2, profile.JetsonXavier, profile.JetsonXavier,
	}
	fleet := make([]core.CameraSpec, len(classes))
	for i, c := range classes {
		fleet[i] = core.CameraSpec{Index: i, Profile: profile.Derived(c)}
	}

	rng := rand.New(rand.NewSource(11))
	sizes := []int{64, 128, 256}
	var objects []core.ObjectSpec
	for i := 0; i < 40; i++ {
		k := 1 + rng.Intn(len(fleet))
		coverage := rng.Perm(len(fleet))[:k]
		sz := make(map[int]int, k)
		for _, c := range coverage {
			sz[c] = sizes[rng.Intn(len(sizes))]
		}
		objects = append(objects, core.ObjectSpec{ID: i + 1, Coverage: coverage, Size: sz})
	}

	base, err := core.Central(fleet, objects, core.CentralOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline BALB:           system latency %v\n", base.System().Round(1e6))

	// 1. Redundancy: second trackers within a 15%% latency budget.
	var solver core.Solver
	red, err := solver.CentralRedundant(fleet, core.NewInstance(objects), 2, 1.15)
	if err != nil {
		log.Fatal(err)
	}
	redundant := 0
	for j := range objects {
		redundant += len(red.Extra(j))
	}
	fmt.Printf("redundant (R=2, 15%% slack): %d/%d objects double-tracked, system %v\n",
		redundant, len(objects), red.System().Round(1e6))

	// 2. Quality-aware lambda sweep.
	fmt.Println("\nquality-latency tradeoff (lambda sweep):")
	for _, lambda := range []float64{0, 0.25, 0.5, 1} {
		sol, err := core.CentralQualityAware(fleet, objects, core.QualityOptions{Lambda: lambda})
		if err != nil {
			log.Fatal(err)
		}
		mean, err := core.MeanAssignedSize(objects, sol.Assign)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  lambda=%.2f  mean view size %5.1fpx  system latency %v\n",
			lambda, mean, sol.System().Round(1e6))
	}

	// 3. Total-load (energy) objective.
	minSum, err := core.MinTotalLoad(fleet, objects)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nobjective comparison:\n")
	fmt.Printf("  BALB (min-max):      max %v   total %v\n",
		base.System().Round(1e6), core.TotalLoad(base.Latencies).Round(1e6))
	fmt.Printf("  MinTotalLoad:        max %v   total %v\n",
		minSum.System().Round(1e6), core.TotalLoad(minSum.Latencies).Round(1e6))

	// 4. Centralized processing: minimum uploading cover.
	chosen, err := core.MinUploadCover(fleet, objects)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncentralized extension: %d/%d cameras suffice to cover all %d objects: %v\n",
		len(chosen), len(fleet), len(objects), chosen)
}
