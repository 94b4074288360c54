package serve

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"mvs/internal/gpu"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
)

// priceCoverage counts what the generated runs exercised, so the
// specification test can insist it reached every branch of the pricing.
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

// cloneRequests deep-copies a frame, so the specification reads the
// frame as it was filed even if the pool wrote into it.
func cloneRequests(reqs []pipeline.ExecRequest) []pipeline.ExecRequest {
	out := slices.Clone(reqs)
	for i := range out {
		out[i].Tasks = slices.Clone(out[i].Tasks)
	}
	return out
}

// tenantState is a tenant's scheduling state between epochs.
type tenantState struct {
	vtime       float64
	shedLevel   int
	lastLatency time.Duration
	stats       pipeline.ExecStats
}

func stateOf(t *Tenant) tenantState {
	return tenantState{t.vtime, t.shedLevel, t.lastLatency, t.stats}
}

// specLaunch is one launch of the direct cut: its duration, its batch
// limit (0 for a full-frame inspection) and the (tenant, request) of each
// task it carries.
type specLaunch struct {
	dur     time.Duration
	limit   int
	members []member
}

// directCut is the epoch's work stated directly: the tenants in fair
// order (ascending virtual time, then registration), each one's
// full-frame requests a launch of their own, its admitted tasks appended
// in request and task order to one queue per size — per tenant and size
// without consolidation — and each queue cut into batches at the size's
// limit, the remainders launched in ascending size after each tenant
// (without consolidation) or after all of them. It returns the launches
// in that order, the tasks shed per (tenant, request), and the first
// task of a size the profile does not know, as the error prefix the pool
// must report.
func directCut(cfg Config, order []*Tenant, frames map[*Tenant][]pipeline.ExecRequest) (launches []specLaunch, shed map[member]int, errPrefix string) {
	prof := cfg.Profile
	shed = map[member]int{}
	type key struct{ tenant, size int }
	queues := map[key][]member{}
	flush := func(tenant int) {
		for _, size := range prof.Sizes {
			if n := len(queues[key{tenant, size}]); n > 0 {
				launches = append(launches, specLaunch{profile.TrueBatchLatency(prof.Class, size, n), prof.BatchLimit[size], queues[key{tenant, size}]})
				queues[key{tenant, size}] = nil
			}
		}
	}
	for _, t := range order {
		for ri, req := range frames[t] {
			m := member{t, ri}
			if req.Full {
				launches = append(launches, specLaunch{dur: profile.TrueFullFrameLatency(prof.Class), members: []member{m}})
				continue
			}
			for ti, task := range req.Tasks {
				if t.shedLevel > 0 && ti%4 < t.shedLevel {
					shed[m]++
					continue
				}
				limit, err := prof.BatchLimitFor(task.Size)
				if err != nil {
					if errPrefix == "" {
						errPrefix = fmt.Sprintf("serve: tenant %q camera %d: ", t.id, req.Cam)
					}
					continue
				}
				k := key{-1, task.Size}
				if !cfg.Consolidate {
					k.tenant = t.index
				}
				queues[k] = append(queues[k], m)
				if len(queues[k]) == limit {
					launches = append(launches, specLaunch{profile.TrueBatchLatency(prof.Class, task.Size, limit), limit, queues[k]})
					queues[k] = nil
				}
			}
		}
		if !cfg.Consolidate {
			flush(t.index)
		}
	}
	flush(-1)
	return launches, shed, errPrefix
}

// runAgainstSpec generates one pool run from rng — config, tenants, and
// per epoch each tenant's frame or its Finish — and holds every epoch's
// pricing to its specification, failing t at the first epoch that
// breaks it:
//   - admission: the shed ladder's step from the last priced latency,
//     and the shed rule by task index;
//   - the direct sum over the fair order (directCut): each request's
//     batches, images and mean occupancy; each tenant's virtual time, a
//     batch's duration split by its share of the tasks over its weight;
//     and the pool's busy time, batch, image, full-frame and
//     shared-batch totals;
//   - conservation: every task is priced once or shed, per-tenant sums
//     equal batch sums, and the busy time placed on the executors is the
//     busy time priced;
//   - placement: each launch, in directCut's order, starts on the
//     executor free earliest (ties to the lowest index), no earlier than
//     the epoch, and runs back to back with its work there;
//   - latency: a priced request completes after its longest launch and no
//     later than the last executor this epoch, and the epoch's slowest
//     request is that executor; SLO violations and queue depth follow.
//
// A failed packing must fail every active tenant with the first bad
// task's tenant and camera, shed what it shed, and price nothing.
// With unprofiled set, about one epoch in four carries a task of a size
// the profile does not know.
func runAgainstSpec(t testing.TB, rng *rand.Rand, unprofiled bool, cov *priceCoverage) {
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
	cfg = pool.cfg // the defaults resolved

	n := 1 + rng.Intn(16)
	epochs := 1 + rng.Intn(12)
	tenants := make([]*Tenant, n)
	finishAt := make([]int, n)
	for i := range tenants {
		id := string(rune('a' + i))
		weight := []float64{0, 1, 1, 0.5, 2, 3.7, -1}[rng.Intn(7)]
		slo := slos[rng.Intn(len(slos))]
		if tenants[i], err = pool.Register(id, weight, slo); err != nil {
			t.Fatalf("Register(%q, %v, %v): %v", id, weight, slo, err)
		}
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

	var occSum float64 // the pool's fill sum, from the direct cut
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

		// The state before, and the epoch as the specification states
		// it: the ladder's step, the fair order, the direct cut.
		pool.mu.Lock()
		before := make([]tenantState, n)
		for i, tn := range tenants {
			before[i] = stateOf(tn)
		}
		availBefore, statsBefore, epochStart := slices.Clone(pool.avail), pool.stats, time.Duration(pool.epoch)*cfg.Period
		pool.mu.Unlock()
		level := make([]int, n)
		filed := map[*Tenant][]pipeline.ExecRequest{}
		var order []*Tenant
		for _, i := range live {
			b, tn := before[i], tenants[i]
			level[i] = b.shedLevel
			switch {
			case tn.slo <= 0:
			case b.lastLatency > tn.slo && b.shedLevel < maxShedLevel:
				level[i]++
			case b.shedLevel > 0 && b.lastLatency*10 <= tn.slo*7:
				level[i]--
			}
			filed[tn] = cloneRequests(frames[i])
			order = append(order, tn)
		}
		slices.SortStableFunc(order, func(a, b *Tenant) int {
			return cmp.Or(cmp.Compare(a.vtime, b.vtime), cmp.Compare(a.index, b.index))
		})

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
		fail := func(format string, args ...any) {
			t.Helper()
			pool.mu.Unlock()
			t.Fatalf("epoch %d: %s", e, fmt.Sprintf(format, args...))
		}
		for _, i := range live {
			if tenants[i].shedLevel != level[i] {
				fail("tenant %d: shed level %d, the ladder says %d", i, tenants[i].shedLevel, level[i])
			}
		}
		launches, shed, errPrefix := directCut(cfg, order, filed)
		shedBy, shedTotal := map[*Tenant]int{}, 0
		for m, k := range shed {
			shedBy[m.t] += k
			shedTotal += k
		}
		after := make([]tenantState, n)
		for i, tn := range tenants {
			after[i] = stateOf(tn)
		}

		if errPrefix != "" {
			for _, i := range live {
				tn := tenants[i]
				if !tn.replyReady {
					fail("tenant %d not answered", i)
				}
				_, _, err := tn.take()
				if err == nil || !strings.HasPrefix(err.Error(), errPrefix) {
					fail("tenant %d: error %v, want one starting %q", i, err, errPrefix)
				}
				want := before[i]
				want.shedLevel = level[i]
				want.stats.ShedTasks += shedBy[tn]
				if after[i] != want {
					fail("tenant %d: a failed epoch left %+v, want %+v", i, after[i], want)
				}
			}
			wantStats := statsBefore
			wantStats.ShedTasks += shedTotal
			if pool.stats != wantStats || !slices.Equal(pool.avail, availBefore) {
				fail("a failed epoch left pool stats %+v and executors %v, want %+v and %v", pool.stats, pool.avail, wantStats, availBefore)
			}
			cov.failed++
			pool.mu.Unlock()
			cov.epochs++
			continue
		}

		// The direct sums, per request, per tenant and for the pool.
		type reqSum struct {
			batches, images int
			fill            float64
			longest         time.Duration
		}
		perReq := map[member]*reqSum{}
		sumOf := func(m member) *reqSum {
			if perReq[m] == nil {
				perReq[m] = &reqSum{}
			}
			return perReq[m]
		}
		vtime := map[*Tenant]float64{}
		sharedOf := map[*Tenant]int{}
		var want PoolStats
		for _, l := range launches {
			want.BusyTime += l.dur
			if l.limit == 0 {
				m := l.members[0]
				want.FullFrames++
				vtime[m.t] += l.dur.Seconds() / m.t.weight
				sumOf(m).longest = l.dur
				continue
			}
			fill := float64(len(l.members)) / float64(l.limit)
			want.Batches++
			want.Images += len(l.members)
			occSum += fill
			tasksOf := map[*Tenant]int{}
			seen := map[member]bool{}
			for _, m := range l.members {
				tasksOf[m.t]++
				r := sumOf(m)
				r.images++
				r.longest = max(r.longest, l.dur)
				if !seen[m] {
					seen[m] = true
					r.batches++
					r.fill += fill
				}
			}
			for tn, k := range tasksOf {
				vtime[tn] += l.dur.Seconds() * float64(k) / float64(len(l.members)) / tn.weight
				if len(tasksOf) >= 2 {
					sharedOf[tn]++
				}
			}
			if len(tasksOf) >= 2 {
				want.SharedBatches++
			}
		}

		// Conservation on the executors: each one's new work runs back to
		// back from when it was free (or the epoch began), and sums to the
		// busy time priced. The last of them ends the epoch's slowest
		// request.
		var placed, last time.Duration
		for k, a := range pool.avail {
			if a != availBefore[k] {
				if a < availBefore[k] {
					fail("executor %d free at %v, earlier than %v", k, a, availBefore[k])
				}
				placed += a - max(availBefore[k], epochStart)
				last = max(last, a-epochStart)
			}
		}
		if placed != want.BusyTime {
			fail("executors took %v of work, the epoch priced %v", placed, want.BusyTime)
		}
		avail := slices.Clone(availBefore)
		for _, l := range launches {
			e := slices.Index(avail, slices.Min(avail)) // the first free earliest
			avail[e] = max(avail[e], epochStart) + l.dur
		}
		if !slices.Equal(pool.avail, avail) {
			fail("executors free at %v, earliest-available placement frees them at %v", pool.avail, avail)
		}
		backlog := last > cfg.Period

		slowest := time.Duration(0)
		for _, i := range live {
			tn := tenants[i]
			if !tn.replyReady {
				fail("tenant %d not answered", i)
			}
			got, stats, err := tn.take()
			if err != nil {
				fail("tenant %d: %v", i, err)
			}
			if len(got) != len(filed[tn]) {
				fail("tenant %d: %d results for %d requests", i, len(got), len(filed[tn]))
			}
			var lat time.Duration
			for ri, r := range got {
				m := member{tn, ri}
				sum := sumOf(m)
				wantOcc := 0.0
				if sum.batches > 0 {
					wantOcc = sum.fill / float64(sum.batches)
				}
				req := filed[tn][ri]
				if !req.Full && r.Images+r.Shed != len(req.Tasks) || r.Shed != shed[m] || r.Images != sum.images ||
					r.Batches != sum.batches || math.Abs(r.Occupancy-wantOcc) > 1e-12 {
					fail("tenant %d request %d: %+v, the direct cut says %d shed, %d images in %d batches at occupancy %v",
						i, ri, r, shed[m], sum.images, sum.batches, wantOcc)
				}
				if priced := sum.longest > 0; priced && (r.Latency < sum.longest || r.Latency > last) || !priced && r.Latency != 0 {
					fail("tenant %d request %d: latency %v, its longest launch %v, the last executor %v", i, ri, r.Latency, sum.longest, last)
				}
				lat = max(lat, r.Latency)
			}
			slowest = max(slowest, lat)
			b := before[i]
			dv := vtime[tn]
			if math.Abs(tn.vtime-b.vtime-dv) > 1e-9*(1+math.Abs(tn.vtime)) {
				fail("tenant %d: virtual time %v -> %v, the direct sum adds %v", i, b.vtime, tn.vtime, dv)
			}
			ws := b.stats
			ws.ShedTasks += shedBy[tn]
			ws.SharedBatches += sharedOf[tn]
			if tn.slo > 0 && lat > tn.slo {
				ws.SLOViolations++
				want.SLOViolations++
			}
			ws.QueueDepth = stats.QueueDepth
			if (stats.QueueDepth > 0) != backlog || stats.QueueDepth > len(launches) {
				fail("tenant %d: queue depth %d with the last executor at %v of a %v epoch (%d launches)", i, stats.QueueDepth, last, cfg.Period, len(launches))
			}
			if stats != ws || tn.stats != ws || tn.lastLatency != lat {
				fail("tenant %d: stats %+v (kept %+v, last latency %v), want %+v and %v", i, stats, tn.stats, tn.lastLatency, ws, lat)
			}
		}
		if len(launches) > 0 && slowest != last {
			fail("slowest request %v, but the last executor finished at %v", slowest, last)
		}
		for _, i := range finishing {
			if after[i] != before[i] {
				fail("finished tenant %d changed: %+v -> %+v", i, before[i], after[i])
			}
		}
		want.Epochs = 1
		want.ShedTasks = shedTotal
		got := pool.stats
		got.Epochs -= statsBefore.Epochs
		got.Batches -= statsBefore.Batches
		got.FullFrames -= statsBefore.FullFrames
		got.Images -= statsBefore.Images
		got.SharedBatches -= statsBefore.SharedBatches
		got.ShedTasks -= statsBefore.ShedTasks
		got.SLOViolations -= statsBefore.SLOViolations
		got.BusyTime -= statsBefore.BusyTime
		if got != want {
			fail("pool counters grew by %+v, the direct sums say %+v", got, want)
		}
		pool.mu.Unlock()
		if got, total := pool.Stats(), pool.stats.Batches; total > 0 && math.Abs(got.MeanOccupancy-occSum/float64(total)) > 1e-12 {
			t.Fatalf("epoch %d: mean occupancy %v, the direct cut's %v", e, got.MeanOccupancy, occSum/float64(total))
		}
		cov.epochs++
		cov.fullFrames += want.FullFrames
		for _, i := range live {
			if tn := tenants[i]; tn.shedLevel > 0 && tn.lastLatency > tn.slo {
				cov.shedUp++
			} else if tn.shedLevel > 0 && tn.lastLatency*10 <= tn.slo*7 {
				cov.shedDown++
			}
		}
	}
	for _, tn := range tenants {
		tn.Finish()
	}
}

// TestPriceEpochMeetsSpec holds the reused-scratch pricing to its
// specification (runAgainstSpec) on generated runs: 1 to 16 tenants of
// mixed weights and SLOs, full frames, empty frames and tasks of every
// profiled size, consolidation on and off, loads that walk the shed
// ladder up and down, and tenants that finish mid-run. A further set of
// runs includes unprofiled sizes, whose epochs fail.
func TestPriceEpochMeetsSpec(t *testing.T) {
	runs := 1000
	if testing.Short() {
		runs = 200
	}
	var cov priceCoverage
	rng := rand.New(rand.NewSource(35))
	for r := 0; r < runs; r++ {
		runAgainstSpec(t, rng, false, &cov)
	}
	for r := 0; r < runs/5; r++ {
		runAgainstSpec(t, rng, true, &cov)
	}
	t.Logf("%+v", cov)
	if cov.failed == 0 || cov.fullFrames == 0 || cov.shared == 0 || cov.dedicated == 0 || cov.shedUp == 0 ||
		cov.shedDown == 0 || cov.finished == 0 || cov.emptyReqs == 0 {
		t.Fatalf("generated runs missed a branch: %+v", cov)
	}
}

// FuzzPriceEpoch drives the same generator from fuzzed seeds, with and
// without unprofiled task sizes: every epoch, including the one after a
// failed packing, must meet the specification.
func FuzzPriceEpoch(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, unprofiled bool) {
		var cov priceCoverage
		runAgainstSpec(t, rand.New(rand.NewSource(seed)), unprofiled, &cov)
	})
}
