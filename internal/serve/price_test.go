package serve

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mvs/internal/gpu"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
)

// priceCoverage counts what the generated runs exercised, so the
// differential test can insist it reached every branch of the pricing.
type priceCoverage struct {
	epochs, failed, fullFrames, shared, dedicated int
	shedUp, shedDown, finished, emptyReqs         int
}

// genRequests draws one tenant's frame: zero to four cameras, each a
// full-frame inspection or a list of tasks over every profiled size, and
// under heavy load enough tasks to overrun an executor.
func genRequests(rng *rand.Rand, prof *profile.Profile, heavy bool) []pipeline.ExecRequest {
	reqs := make([]pipeline.ExecRequest, rng.Intn(5))
	for c := range reqs {
		reqs[c].Cam = c
		if rng.Intn(6) == 0 {
			reqs[c].Full = true
			continue
		}
		n := rng.Intn(7)
		if heavy {
			n = rng.Intn(40)
		}
		for i := 0; i < n; i++ {
			reqs[c].Tasks = append(reqs[c].Tasks, gpu.Task{ObjectID: i, Size: prof.Sizes[rng.Intn(len(prof.Sizes))]})
		}
	}
	return reqs
}

// cloneRequests deep-copies a frame, so the oracle and the pool read
// separate storage and a pool that wrote into a request would diverge.
func cloneRequests(reqs []pipeline.ExecRequest) []pipeline.ExecRequest {
	out := slices.Clone(reqs)
	for i := range out {
		out[i].Tasks = slices.Clone(out[i].Tasks)
	}
	return out
}

// runAgainstOracle generates one pool run from rng — config, tenants,
// and per epoch each tenant's frame or its Finish — and prices it on a
// Pool and on the oracle side by side, failing t at the first epoch
// where any reply, error, counter, virtual time, shed level or executor
// availability differs. With unprofiled set, about one epoch in four
// carries a task of a size the profile does not know, so its packing
// fails and the next epoch must still price as the oracle's does.
func runAgainstOracle(t testing.TB, rng *rand.Rand, unprofiled bool, cov *priceCoverage) {
	t.Helper()
	prof := profile.Derived([]profile.DeviceClass{profile.JetsonNano, profile.JetsonTX2, profile.JetsonXavier}[rng.Intn(3)])
	slos := []time.Duration{0, 20 * time.Millisecond, 60 * time.Millisecond, 150 * time.Millisecond}
	cfg := Config{
		Executors:   rng.Intn(5),
		Profile:     prof,
		Period:      []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond}[rng.Intn(3)],
		Consolidate: rng.Intn(2) == 0,
		DefaultSLO:  slos[rng.Intn(len(slos))],
	}
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	oracle := newOraclePool(cfg)

	n := 1 + rng.Intn(16)
	epochs := 1 + rng.Intn(12)
	tenants := make([]*Tenant, n)
	ref := make([]*oracleTenant, n)
	finishAt := make([]int, n)
	for i := range tenants {
		id := string(rune('a' + i))
		weight := []float64{0, 1, 1, 0.5, 2, 3.7, -1}[rng.Intn(7)]
		slo := slos[rng.Intn(len(slos))]
		if tenants[i], err = pool.Register(id, weight, slo); err != nil {
			t.Fatalf("Register(%q, %v, %v): %v", id, weight, slo, err)
		}
		ref[i] = oracle.register(id, weight, slo)
		finishAt[i] = epochs
		if rng.Intn(3) == 0 {
			finishAt[i] = rng.Intn(epochs)
		}
	}
	if cfg.Consolidate {
		cov.shared++
	} else {
		cov.dedicated++
	}

	for e := 0; e < epochs; e++ {
		frames := make([][]pipeline.ExecRequest, n)
		var live, finishing []int
		for i := range tenants {
			switch {
			case e == finishAt[i]:
				finishing = append(finishing, i)
				cov.finished++
			case e < finishAt[i]:
				live = append(live, i)
				frames[i] = genRequests(rng, prof, rng.Intn(3) == 0)
				if len(frames[i]) == 0 {
					cov.emptyReqs++
				}
			}
		}
		if len(live) == 0 {
			for _, i := range finishing {
				tenants[i].Finish()
			}
			break
		}
		if unprofiled && rng.Intn(4) == 0 {
			k := live[rng.Intn(len(live))]
			bad := gpu.Task{ObjectID: 99, Size: []int{0, 1, 100, 1 << 20}[rng.Intn(4)]}
			if len(frames[k]) == 0 {
				frames[k] = append(frames[k], pipeline.ExecRequest{Tasks: []gpu.Task{bad}})
			} else {
				r := &frames[k][rng.Intn(len(frames[k]))]
				r.Full = false
				r.Tasks = append(r.Tasks, bad)
				slices.Reverse(r.Tasks)
			}
		}

		// The oracle: finishers leave, the rest file, one pricing.
		for _, i := range finishing {
			ref[i].finish()
		}
		for _, i := range live {
			ref[i].pending = cloneRequests(frames[i])
			ref[i].hasPending = true
		}
		oracle.oraclePriceEpoch()

		// The pool: in a random arrival order, with the finishers leaving
		// either first or last — the last Finish then prices the epoch.
		finishFirst := rng.Intn(2) == 0
		if finishFirst {
			for _, i := range finishing {
				tenants[i].Finish()
			}
		}
		pool.mu.Lock()
		for _, k := range rng.Perm(len(live)) {
			if err := tenants[live[k]].file(frames[live[k]]); err != nil {
				t.Fatalf("epoch %d: file: %v", e, err)
			}
		}
		pool.mu.Unlock()
		if !finishFirst {
			for _, i := range finishing {
				tenants[i].Finish()
			}
		}

		pool.mu.Lock()
		for _, i := range live {
			tn, rt := tenants[i], ref[i]
			if !tn.replyReady || !rt.replyReady {
				pool.mu.Unlock()
				t.Fatalf("epoch %d tenant %d: not priced (pool %v, oracle %v)", e, i, tn.replyReady, rt.replyReady)
			}
			got, gotStats, gotErr := tn.take()
			want, wantStats, wantErr := rt.take()
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				pool.mu.Unlock()
				t.Fatalf("epoch %d tenant %d: error %v, oracle %v", e, i, gotErr, wantErr)
			}
			if !equalResults(got, want) {
				pool.mu.Unlock()
				t.Fatalf("epoch %d tenant %d: reply\n got %+v\nwant %+v", e, i, got, want)
			}
			if gotStats != wantStats {
				pool.mu.Unlock()
				t.Fatalf("epoch %d tenant %d: stats %+v, oracle %+v", e, i, gotStats, wantStats)
			}
			if wantErr != nil && i == live[0] {
				cov.failed++
			}
		}
		for i := range tenants {
			tn, rt := tenants[i], ref[i]
			if math.Float64bits(tn.vtime) != math.Float64bits(rt.vtime) || tn.shedLevel != rt.shedLevel ||
				tn.lastLatency != rt.lastLatency || tn.stats != rt.stats {
				pool.mu.Unlock()
				t.Fatalf("epoch %d tenant %d: vtime %v shed %d last %v stats %+v; oracle %v %d %v %+v", e, i,
					tn.vtime, tn.shedLevel, tn.lastLatency, tn.stats, rt.vtime, rt.shedLevel, rt.lastLatency, rt.stats)
			}
		}
		gotAvail, epoch := slices.Clone(pool.avail), pool.epoch
		pool.mu.Unlock()
		if !slices.Equal(gotAvail, oracle.avail) || epoch != oracle.epoch {
			t.Fatalf("epoch %d: executors free at %v (epoch %d), oracle %v (epoch %d)", e, gotAvail, epoch, oracle.avail, oracle.epoch)
		}
		got, want := pool.Stats(), oracle.statsCopy()
		if math.Float64bits(got.MeanOccupancy) != math.Float64bits(want.MeanOccupancy) {
			t.Fatalf("epoch %d: mean occupancy %v, oracle %v", e, got.MeanOccupancy, want.MeanOccupancy)
		}
		if got != want {
			t.Fatalf("epoch %d: pool stats %+v, oracle %+v", e, got, want)
		}
		cov.epochs++
		for _, i := range live {
			if ref[i].shedLevel > 0 && ref[i].lastLatency > ref[i].slo {
				cov.shedUp++
			}
			if ref[i].shedLevel > 0 && ref[i].lastLatency*10 <= ref[i].slo*7 {
				cov.shedDown++
			}
		}
	}
	cov.fullFrames += oracle.stats.FullFrames
	for _, tn := range tenants {
		tn.Finish()
	}
}

// equalResults compares two replies field by field, occupancy to the
// bit; a nil and an empty reply are equal.
func equalResults(a, b []pipeline.ExecResult) bool {
	return slices.EqualFunc(a, b, func(x, y pipeline.ExecResult) bool {
		return x.Latency == y.Latency && x.Batches == y.Batches && x.Images == y.Images &&
			x.Shed == y.Shed && math.Float64bits(x.Occupancy) == math.Float64bits(y.Occupancy)
	})
}

// TestPriceEpochMatchesOracle holds the reused-scratch pricing to the
// allocating code it replaced (oracle_test.go) on generated runs: 1 to
// 16 tenants of mixed weights and SLOs, full frames, empty frames and
// tasks of every profiled size, consolidation on and off, loads that
// walk the shed ladder up and down, and tenants that finish mid-run.
// A further set of runs includes unprofiled sizes, whose epochs fail.
func TestPriceEpochMatchesOracle(t *testing.T) {
	runs := 1000
	if testing.Short() {
		runs = 200
	}
	var cov priceCoverage
	rng := rand.New(rand.NewSource(35))
	for r := 0; r < runs; r++ {
		runAgainstOracle(t, rng, false, &cov)
	}
	for r := 0; r < runs/5; r++ {
		runAgainstOracle(t, rng, true, &cov)
	}
	t.Logf("%+v", cov)
	if cov.failed == 0 || cov.fullFrames == 0 || cov.shared == 0 || cov.dedicated == 0 || cov.shedUp == 0 ||
		cov.shedDown == 0 || cov.finished == 0 || cov.emptyReqs == 0 {
		t.Fatalf("generated runs missed a branch: %+v", cov)
	}
}

// FuzzPriceEpoch drives the same generator from fuzzed seeds, with and
// without unprofiled task sizes: every epoch, including the one after a
// failed packing, must price exactly as the oracle prices it.
func FuzzPriceEpoch(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, unprofiled bool) {
		var cov priceCoverage
		runAgainstOracle(t, rand.New(rand.NewSource(seed)), unprofiled, &cov)
	})
}
