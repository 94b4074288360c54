package main

import (
	"math"
	"sort"
	"time"
)

// The reference kernel is the benchmark's yardstick for host speed. This
// host drifts by several percent over one to three minutes, so a wall
// clock alone cannot tell a slower program from a slower minute. The
// kernel is run before and after every pass; its time, against the
// constant below, gives the pass a speed factor, and every time-based
// end-to-end metric is multiplied by it (bench/README.md, "Reference
// correction").
//
// FROZEN: this file must not change after the PR that added it. It is
// the one piece of code both sides of every later comparison share, and
// TestRefKernelPinned fails on any edit that changes what it computes.
// It mixes the work the engine itself does: a float sort, map inserts
// and lookups, small slice allocations, and brute-force nearest-
// neighbour scans.
//
// It is timed in two ways. measure calls it back to back, before and
// after a pass: the yardstick of the closed loops and of set-up, which
// compute without a pause. In the open loop every frame finds a
// processor that sat idle since the last one, and what slows an
// idle-started call on this host is not what slows a hot loop (NOISE.md,
// section 4): there the sender process calls the kernel once, halfway
// between two frames, after every fifth frame (sender.go), and the
// median of those calls is the pass's yardstick.

// refNominalUS is the kernel's median time per call, in microseconds,
// on the host the benchmark was defined on (2 vCPU Xeon @ 2.10GHz, go
// 1.24). It only scales the corrected numbers; it never needs to match
// another host.
const refNominalUS = 590.0

// refProbeNominalUS is the same for the sender's idle-started calls.
const refProbeNominalUS = 620.0

const (
	refCalls   = 100 // calls per measurement; the median is used
	refFloats  = 2048
	refKeys    = 1024
	refSlices  = 128
	refPoints  = 4096
	refDim     = 4
	refQueries = 16
)

// refKernel holds the kernel's fixed inputs, generated once from a
// constant so every process measures the same work.
type refKernel struct {
	floats  []float64
	scratch []float64
	keys    []uint64
	points  []float64 // refPoints rows of refDim
	queries []float64 // refQueries rows of refDim
	sink    [][]float64
}

// xorshift is the kernel's own generator: math/rand's stream is not
// pinned across Go releases, this is.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func (x *xorshift) float() float64 { return float64(x.next()>>11) / (1 << 53) }

func newRefKernel() *refKernel {
	rng := xorshift(0x2545F4914F6CDD1D)
	k := &refKernel{
		floats:  make([]float64, refFloats),
		scratch: make([]float64, refFloats),
		keys:    make([]uint64, refKeys),
		points:  make([]float64, refPoints*refDim),
		queries: make([]float64, refQueries*refDim),
		sink:    make([][]float64, refSlices),
	}
	for i := range k.floats {
		k.floats[i] = rng.float() * 1000
	}
	for i := range k.keys {
		k.keys[i] = rng.next()
	}
	for i := range k.points {
		k.points[i] = rng.float() * 1280
	}
	for i := range k.queries {
		k.queries[i] = rng.float() * 1280
	}
	return k
}

// call runs the kernel once and returns a checksum of everything it
// computed, so no part can be optimized away and an edit shows.
func (k *refKernel) call() uint64 {
	var sum uint64

	copy(k.scratch, k.floats)
	sort.Float64s(k.scratch)
	sum += math.Float64bits(k.scratch[0]) ^ math.Float64bits(k.scratch[refFloats/2]) ^ math.Float64bits(k.scratch[refFloats-1])

	m := make(map[uint64]int, 64)
	for i, key := range k.keys {
		m[key] = i
	}
	for _, key := range k.keys {
		sum += uint64(m[key^1]) + uint64(m[key])
	}

	for i := range k.sink {
		s := make([]float64, 4+i%13)
		s[0] = float64(i)
		k.sink[i] = s
		sum += uint64(len(s))
	}

	for q := 0; q < refQueries; q++ {
		qv := k.queries[q*refDim : (q+1)*refDim]
		best, bestD := -1, math.MaxFloat64
		for p := 0; p < refPoints; p++ {
			pv := k.points[p*refDim : (p+1)*refDim]
			var d float64
			for j := 0; j < refDim; j++ {
				diff := pv[j] - qv[j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = p, d
			}
		}
		sum += uint64(best) * 31
	}
	return sum
}

// measure runs refCalls calls and returns the median time per call in
// microseconds.
func (k *refKernel) measure() float64 {
	times := make([]float64, refCalls)
	for i := range times {
		start := time.Now()
		k.call()
		times[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(times)
}
