package pipeline

import (
	"reflect"
	"testing"

	"mvs/internal/assoc"
	"mvs/internal/geom"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/shard"
	"mvs/internal/workload"
)

// buildScenarioEnv generates, splits, and trains a scenario for the
// sharded tests.
func buildScenarioEnv(t *testing.T, s *workload.Scenario, frames int) (*scene.Trace, *assoc.Model, []*profile.Profile) {
	t.Helper()
	trace, err := s.World.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	train, test := trace.SplitTrain()
	model, err := assoc.Train(train, assoc.Factories{})
	if err != nil {
		t.Fatal(err)
	}
	return test, model, s.Profiles()
}

// islandShardMap partitions the scenario by ground-truth co-observation
// and sanity-checks the expected shard count.
func islandShardMap(t *testing.T, trace *scene.Trace, wantShards int) *shard.Map {
	t.Helper()
	g, err := shard.FromCoObservation(trace.CoObservation(), 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.Partition(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() != wantShards {
		t.Fatalf("partition found %d shards, want %d (map %v)", m.NumShards(), wantShards, m.String())
	}
	if len(m.Boundary) != 0 {
		t.Fatalf("islands must have no boundary edges, got %v", m.Boundary)
	}
	return m
}

// TestShardedMatchesGlobalOnIslands is the determinism acceptance test:
// on a scenario whose coverage graph is block-diagonal (two disjoint
// corridor islands, so zero cross-shard traffic is structural, not
// lucky), a sharded run must be bit-identical to the global run — same
// recall counts, same modelled latencies, same tail statistics.
func TestShardedMatchesGlobalOnIslands(t *testing.T) {
	s, err := workload.Islands(2, 3, 29)
	if err != nil {
		t.Fatal(err)
	}
	test, model, profiles := buildScenarioEnv(t, s, 600)
	m := islandShardMap(t, test, 2)

	for _, mode := range []Mode{BALB, CentralOnly} {
		opts := NewConfig(mode, 7)
		global, err := Run(test, profiles, model, opts)
		if err != nil {
			t.Fatalf("%v global: %v", mode, err)
		}
		opts.Sched.Shards = m
		sharded, err := Run(test, profiles, model, opts)
		if err != nil {
			t.Fatalf("%v sharded: %v", mode, err)
		}
		g, sh := global.Modeled(), sharded.Modeled()
		if !reflect.DeepEqual(g, sh) {
			t.Fatalf("%v: sharded run diverged from global:\nglobal:  %+v\nsharded: %+v", mode, g, sh)
		}
		if sharded.Recall <= 0 {
			t.Fatalf("%v: degenerate run, recall %v", mode, sharded.Recall)
		}
	}
}

// TestShardedDeterministicAcrossWorkers checks the sharded mode keeps
// the Workers-independence half of the determinism contract.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	s, err := workload.Islands(2, 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	test, model, profiles := buildScenarioEnv(t, s, 400)
	m := islandShardMap(t, test, 2)

	base, err := Run(test, profiles, model, Config{Sched: Sched{Mode: BALB, Shards: m, Workers: 1}, Sim: Sim{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		rep, err := Run(test, profiles, model, Config{Sched: Sched{Mode: BALB, Shards: m, Workers: workers}, Sim: Sim{Seed: 3}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(base.Modeled(), rep.Modeled()) {
			t.Fatalf("workers=%d diverged from sequential run", workers)
		}
	}
}

// TestShardedCorridorSmoke runs a corridor under a max-shard split —
// real boundary edges, objects crossing shard cuts — and checks the
// run stays healthy: no orphaned objects in the fault-free case.
func TestShardedCorridorSmoke(t *testing.T) {
	n := 16
	if testing.Short() {
		n = 8
	}
	s, err := workload.Corridor(n, 17)
	if err != nil {
		t.Fatal(err)
	}
	test, model, profiles := buildScenarioEnv(t, s, 400)

	adj, err := model.OverlapAdjacency(frameRects(s))
	if err != nil {
		t.Fatal(err)
	}
	g, err := shard.FromAdjacency(adj)
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() < 2 {
		t.Fatalf("corridor with max-shard 4 must split, got %v", m.String())
	}

	rep, err := Run(test, profiles, model, Config{Sched: Sched{Mode: BALB, Shards: m}, Sim: Sim{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recall < 0.5 {
		t.Fatalf("sharded corridor recall = %v, want >= 0.5", rep.Recall)
	}
	if rep.OrphanedObjects != 0 {
		t.Fatalf("fault-free sharded run orphaned %d objects", rep.OrphanedObjects)
	}
}

func frameRects(s *workload.Scenario) []geom.Rect {
	out := make([]geom.Rect, len(s.World.Cameras))
	for i, c := range s.World.Cameras {
		out[i] = c.Frame()
	}
	return out
}

func TestShardedOptionValidation(t *testing.T) {
	e := getEnv(t)
	m, err := shard.Single(2)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong mode.
	if _, err := Run(e.test, e.profiles, e.model, Config{Sched: Sched{Mode: Independent, Shards: m}, Sim: Sim{Seed: 1}}); err == nil {
		t.Fatal("Shards with Independent mode must fail")
	}
	// Wrong fleet size.
	wrong, err := shard.Single(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(e.test, e.profiles, e.model, Config{Sched: Sched{Mode: BALB, Shards: wrong}, Sim: Sim{Seed: 1}}); err == nil {
		t.Fatal("Shards over the wrong fleet size must fail")
	}
	// Single shard over the right fleet works (degenerate sharding).
	rep, err := Run(e.test, e.profiles, e.model, Config{Sched: Sched{Mode: BALB, Shards: m}, Sim: Sim{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(e.test, e.profiles, e.model, NewConfig(BALB, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Modeled(), rep.Modeled()) {
		t.Fatal("single-shard run diverged from global run")
	}
}
