// Command mvingest pushes a scenario's evaluation frames to a live
// ingest listener (mvsim -ingest-addr, or mvnode -ingest-addr for one
// camera) as length-prefixed frame parts over TCP. It regenerates the
// same deterministic world the listener evaluates against — so a
// well-paced push reproduces the in-process run — and exists to drive
// the overload and chaos paths: -rate 0 offers frames as fast as the
// socket accepts (forcing the listener's admission queues to shed),
// -burst clusters frames between pacing sleeps, and -faults dials
// through the fault injector so drops, resets, and partitions hit the
// wire (docs/STREAMING.md §6, docs/FAULTS.md).
//
// Usage:
//
//	mvsim -ingest-addr :7100 -scenario S2 &
//	mvingest -addr localhost:7100 -scenario S2 -seed 42 [-camera N]
//	         [-rate 100ms] [-burst 1] [-faults seed=7,drop=0.05]
//
// Ground-truth object states ride on camera 0's part of each frame:
// the listener puts them on the assembled frame, from where they reach
// a recording (-record); recall is scored from each camera's
// observations, not from them. With -camera N only that camera's parts
// are pushed, and the truth rides along when N is camera 0 or the push
// targets a single-camera listener (mvnode). After the last frame mvingest sends one EOS part
// per camera, which lets the listener finish with a clean end-of-stream
// instead of a watchdog stall.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"mvs/internal/cliconf"
	"mvs/internal/experiments"
	"mvs/internal/faults"
	"mvs/internal/pipeline"
	"mvs/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:7100", "ingest listener address (mvsim/mvnode -ingest-addr)")
		scenario   = flag.String("scenario", "S1", "scenario: "+workload.ScenarioNames)
		seed       = flag.Int64("seed", 42, "shared simulation seed")
		frames     = flag.Int("frames", 1200, "trace length (first half is the model's training split; the second half is pushed)")
		camera     = flag.Int("camera", -1, "push only this camera's parts (-1 = all cameras)")
		rate       = flag.Duration("rate", 0, "pacing sleep between frame bursts (0 = push as fast as possible)")
		burst      = flag.Int("burst", 1, "frames pushed back-to-back between pacing sleeps")
		faultsSpec = flag.String("faults", "", "dial through the fault injector, e.g. seed=7,drop=0.05,cut=40 (see docs/FAULTS.md)")
		timeout    = flag.Duration("timeout", 10*time.Second, "dial timeout")
	)
	flag.Parse()

	cliconf.Exit("mvingest", run(*addr, *scenario, *seed, *frames, *camera, *rate, *burst, *faultsSpec, *timeout))
}

func run(addr, scenario string, seed int64, frames, camera int, rate time.Duration, burst int, faultsSpec string, timeout time.Duration) error {
	if burst < 1 {
		burst = 1
	}
	fmt.Fprintf(os.Stderr, "regenerating %s (seed %d, %d frames)...\n", scenario, seed, frames)
	// The listener evaluates on the test half; the training half only
	// ever feeds the association model.
	setup, err := experiments.Generate(scenario, seed, frames)
	if err != nil {
		return err
	}
	test := setup.Test
	if camera >= len(test.Cameras) {
		return fmt.Errorf("camera %d out of range: %s has %d cameras", camera, scenario, len(test.Cameras))
	}

	dial := faults.DialFunc(func(addr string, timeout time.Duration) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, timeout)
	})
	if faultsSpec != "" {
		fcfg, err := faults.ParseSpec(faultsSpec)
		if err != nil {
			return err
		}
		dial = faults.New(fcfg).Dialer(nil)
		fmt.Fprintf(os.Stderr, "fault injection armed: %s\n", faultsSpec)
	}
	conn, err := dial(addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()

	var all []pipeline.FramePart
	pushed, parts := 0, 0
	for fi := range test.Frames {
		frame := &test.Frames[fi]
		all = pipeline.AppendFrameParts(all[:0], fi, frame)
		ps := all
		if camera >= 0 {
			// That camera alone, as slot 0 of a single-camera listener's
			// roster, with the truth objects on its part.
			all[camera].Cam, all[camera].Objects = 0, frame.Objects
			ps = all[camera : camera+1]
		}
		for _, p := range ps {
			if err := pipeline.EncodeFramePart(conn, p); err != nil {
				return fmt.Errorf("frame %d camera %d: %w", fi, p.Cam, err)
			}
		}
		parts += len(ps)
		pushed++
		if rate > 0 && pushed%burst == 0 {
			time.Sleep(rate)
		}
	}
	// One EOS per pushed camera roster slot: the listener drains its
	// queues and ends the stream cleanly.
	numCams := len(test.Cameras)
	if camera >= 0 {
		numCams = 1
	}
	for _, p := range pipeline.AppendEOSParts(nil, numCams) {
		if err := pipeline.EncodeFramePart(conn, p); err != nil {
			return fmt.Errorf("eos camera %d: %w", p.Cam, err)
		}
	}
	fmt.Fprintf(os.Stderr, "pushed %d frames (%d parts) to %s\n", pushed, parts, addr)
	return nil
}
