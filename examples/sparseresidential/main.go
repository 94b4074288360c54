// Sparse residential (S2), deployed for real: this example starts the
// central scheduler and two camera nodes as separate components talking
// over loopback TCP — the same binaries-level architecture as the
// paper's Jetson testbed, in one process for convenience.
//
//	go run ./examples/sparseresidential
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"mvs/internal/cluster"
	"mvs/internal/experiments"
	"mvs/internal/node"
	"mvs/internal/scene"
	"mvs/internal/workload"
)

func main() {
	const (
		seed   = 42
		frames = 1200
	)
	fmt.Println("generating S2 world and training the association model...")
	setup, err := experiments.Prepare("S2", seed, frames, 0)
	if err != nil {
		log.Fatal(err)
	}
	scenario, model, test := setup.Scenario, setup.Model, setup.Test

	// Central scheduler on a loopback socket.
	sched, err := cluster.NewScheduler(model, scenario.Profiles(), 0)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := sched.Serve(ln); err != nil {
			log.Println("scheduler:", err)
		}
	}()
	defer func() {
		sched.Close()
		ln.Close()
	}()
	fmt.Println("central scheduler listening on", ln.Addr())

	// One node per camera (Xavier at the west end, Nano at the east).
	var wg sync.WaitGroup
	stats := make([]node.Stats, len(scenario.World.Cameras))
	errs := make([]error, len(scenario.World.Cameras))
	for cam := range scenario.World.Cameras {
		wg.Add(1)
		go func(cam int) {
			defer wg.Done()
			stats[cam], errs[cam] = runNode(ln.Addr().String(), cam, scenario, test)
		}(cam)
	}
	wg.Wait()
	for cam, err := range errs {
		if err != nil {
			log.Fatalf("camera %d: %v", cam, err)
		}
	}

	fmt.Println("\ndeployment summary:")
	for cam, st := range stats {
		fmt.Printf("  camera %d (%s, %s): %v/frame, %d objects, %d tracks + %d shadows\n",
			cam, scenario.World.Cameras[cam].Name, scenario.Devices[cam],
			st.MeanLatency.Round(100_000), st.DetectedObjects, st.ActiveTracks, st.Shadows)
	}
	fmt.Println("\nnote how the Nano runs far below its 470 ms full-frame cost: shared")
	fmt.Println("objects are tracked by the Xavier, and the Nano only inspects what")
	fmt.Println("the masks make it responsible for.")
}

func runNode(addr string, cam int, scenario *workload.Scenario, test *scene.Trace) (node.Stats, error) {
	sc := scenario.World.Cameras[cam]
	client, err := cluster.Dial(addr, cam, 5*time.Second, sc.ImageW, sc.ImageH)
	if err != nil {
		return node.Stats{}, err
	}
	defer client.Close()
	ack := client.Ack()

	rt, err := node.New(node.Config{
		Camera:     cam,
		Frame:      sc.Frame(),
		Profile:    scenario.Profiles()[cam],
		GridCols:   ack.GridCols,
		GridRows:   ack.GridRows,
		Coverage:   ack.Coverage,
		NumCameras: len(scenario.World.Cameras),
		Seed:       7,
		Horizon:    10,
	})
	if err != nil {
		return node.Stats{}, err
	}
	for fi := range test.Frames {
		reports, settle, err := rt.Step(fi, test.Frames[fi].PerCamera[cam], 0)
		if err != nil {
			return node.Stats{}, err
		}
		if settle == nil {
			continue
		}
		a, err := client.KeyFrame(fi, reports, 15*time.Second)
		if err != nil {
			return node.Stats{}, fmt.Errorf("round %d got no assignment: %w", fi, err)
		}
		if err := settle(a); err != nil {
			return node.Stats{}, err
		}
	}
	return rt.Stats(), nil
}
