package node

import (
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/assoc"
	"mvs/internal/cluster"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/shard"
	"mvs/internal/workload"
)

// frameLog and roundLog keep everything a run emits; both are shared by
// concurrent emitters on the cluster side (shard round loops).
type frameLog struct {
	mu    sync.Mutex
	snaps []metrics.Snapshot
}

func (l *frameLog) RecordFrame(s metrics.Snapshot) {
	l.mu.Lock()
	l.snaps = append(l.snaps, s)
	l.mu.Unlock()
}
func (l *frameLog) Flush() error { return nil }

type roundLog struct {
	mu     sync.Mutex
	rounds []metrics.Round
}

func (l *roundLog) RecordRound(r metrics.Round) {
	l.mu.Lock()
	l.rounds = append(l.rounds, r)
	l.mu.Unlock()
}

// roundDecision is the part of a metrics.Round both shapes fill the same
// way: what was scheduled, in which priority order, how many objects
// each camera got.
type roundDecision struct {
	Frame, Objects     int
	Priority, Assigned []int
}

// composeRounds folds the records of one key frame into one decision, in
// label order: a sharded cluster emits one record per shard ("shard0",
// "shard1", ...) where the engine emits one for the fleet, with the
// priorities concatenated and the counts summed.
func composeRounds(rounds []metrics.Round, numCams int) []roundDecision {
	sort.SliceStable(rounds, func(i, j int) bool {
		if rounds[i].Frame != rounds[j].Frame {
			return rounds[i].Frame < rounds[j].Frame
		}
		return rounds[i].Label < rounds[j].Label
	})
	var out []roundDecision
	for _, r := range rounds {
		if len(out) == 0 || out[len(out)-1].Frame != r.Frame {
			out = append(out, roundDecision{Frame: r.Frame, Assigned: make([]int, numCams)})
		}
		d := &out[len(out)-1]
		d.Objects += r.Objects
		d.Priority = append(d.Priority, r.Priority...)
		for cam, n := range r.Assigned {
			d.Assigned[cam] += n
		}
	}
	return out
}

// loopbackRun is what one trace through a loopback cluster leaves
// behind: the scheduler's round records and, per camera, the node's
// snapshots, final counters and detected objects.
type loopbackRun struct {
	rounds   []metrics.Round
	frames   [][]metrics.Snapshot
	stats    []Stats
	detected []map[int]bool
}

// runLoopbackCluster drives the trace through a scheduler (sharded when
// smap is set) and one Runtime per camera over loopback TCP, each node
// by Step alone. The scheduler's barrier is its roster, so the nodes
// dial in whenever they get to it — stagger apart, when set — and start
// stepping at once.
func runLoopbackCluster(t *testing.T, trace *scene.Trace, model *assoc.Model, profiles []*profile.Profile,
	smap *shard.Map, seed int64, horizon int, stagger time.Duration, opts ...cluster.Option) loopbackRun {
	t.Helper()
	rounds := &roundLog{}
	opts = append(opts, cluster.WithRounds(rounds), cluster.WithWorkers(1))
	var sched *cluster.Scheduler
	var err error
	if smap != nil {
		sched, err = cluster.NewShardedScheduler(model, profiles, 0, smap, opts...)
	} else {
		sched, err = cluster.NewScheduler(model, profiles, 0, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = sched.Serve(ln)
	}()
	defer func() {
		sched.Close()
		<-served
	}()

	n := len(trace.Cameras)
	logs := make([]*frameLog, n)
	errs := make([]error, n)
	run := loopbackRun{
		frames: make([][]metrics.Snapshot, n), stats: make([]Stats, n),
		detected: make([]map[int]bool, n),
	}
	var done sync.WaitGroup
	done.Add(n)
	for cam := 0; cam < n; cam++ {
		logs[cam] = &frameLog{}
		go func(cam int) {
			defer done.Done()
			time.Sleep(time.Duration(cam%3) * stagger)
			sc := trace.Cameras[cam]
			client, err := cluster.Dial(ln.Addr().String(), cam, 5*time.Second, sc.ImageW, sc.ImageH)
			if err != nil {
				errs[cam] = err
				return
			}
			defer client.Close()
			ack := client.Ack()
			rt, err := New(Config{
				Camera: cam, Frame: sc.Frame(), Profile: profiles[cam],
				GridCols: ack.GridCols, GridRows: ack.GridRows, Coverage: ack.Coverage,
				NumCameras: n, Seed: seed, Sink: logs[cam], Horizon: horizon,
			})
			if err != nil {
				errs[cam] = err
				return
			}
			for fi := range trace.Frames {
				reports, settle, err := rt.Step(fi, trace.Frames[fi].PerCamera[cam], 0)
				if err == nil && settle != nil {
					// A failed exchange is the miss, which the run fails on
					// below.
					a, _ := client.KeyFrame(fi, reports, 20*time.Second)
					err = settle(a)
				}
				if err != nil {
					errs[cam] = err
					return
				}
			}
			run.stats[cam], run.detected[cam] = rt.Stats(), rt.DetectedIDs()
		}(cam)
	}
	done.Wait()
	for cam, err := range errs {
		if err != nil {
			t.Fatalf("camera %d: %v", cam, err)
		}
		if d := run.stats[cam].DegradedFrames; d != 0 {
			t.Fatalf("camera %d ran %d frames degraded: a round gave it no assignment", cam, d)
		}
		run.frames[cam] = logs[cam].snaps
	}
	run.rounds = rounds.rounds
	return run
}

// TestInProcessMatchesLoopbackCluster is the oracle of "one frame loop,
// two shapes": the same trace through pipeline.Engine and through a
// cluster scheduler with one Runtime per camera over loopback TCP must
// make the same central decisions every round and price, track and
// shadow the same on every camera-frame. The sharded case runs on
// islands (zero cross-shard coverage), where docs/ARCHITECTURE.md
// promises bit-identity between Sched.Shards and a sharded scheduler.
func TestInProcessMatchesLoopbackCluster(t *testing.T) {
	const seed, horizon = 4, 10
	islands, err := workload.Islands(2, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		world    *scene.World
		profiles []*profile.Profile
		frames   int
		sharded  bool
		stagger  time.Duration // cameras register 0, 1 or 2 of these late
	}{
		{"two-camera", twoCamWorld(5), []*profile.Profile{
			profile.Derived(profile.JetsonXavier), profile.Derived(profile.JetsonNano)}, 600, false, 0},
		{"S4", workload.S4(3).World, workload.S4(3).Profiles(), 900, false, 0},
		{"S4-staggered", workload.S4(3).World, workload.S4(3).Profiles(), 900, false, 10 * time.Millisecond},
		{"islands-sharded", islands.World, islands.Profiles(), 900, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full, err := tc.world.Run(tc.frames)
			if err != nil {
				t.Fatal(err)
			}
			train, trace := full.SplitTrain()
			model, err := assoc.Train(train, assoc.Factories{})
			if err != nil {
				t.Fatal(err)
			}
			n := len(trace.Cameras)
			var smap *shard.Map
			if tc.sharded {
				g, err := shard.FromCoObservation(trace.CoObservation(), 1)
				if err != nil {
					t.Fatal(err)
				}
				if smap, err = shard.Partition(g, 0); err != nil {
					t.Fatal(err)
				}
				if smap.NumShards() != 2 || len(smap.Boundary) != 0 {
					t.Fatalf("islands partitioned as %v", smap)
				}
			}

			engFrames, engRounds := &frameLog{}, &roundLog{}
			cfg := pipeline.NewConfig(pipeline.BALB, seed)
			cfg.Sched.Horizon = horizon
			cfg.Sched.Workers = 1
			cfg.Sched.Shards = smap
			cfg.Obs.Sink = engFrames
			cfg.Obs.Rounds = engRounds
			if _, err := pipeline.Run(trace, tc.profiles, model, cfg); err != nil {
				t.Fatal(err)
			}
			clu := runLoopbackCluster(t, trace, model, tc.profiles, smap, seed, horizon, tc.stagger)
			nodeFrames := clu.frames

			want, got := composeRounds(engRounds.rounds, n), composeRounds(clu.rounds, n)
			if len(want) != (len(trace.Frames)+horizon-1)/horizon {
				t.Fatalf("engine emitted %d rounds over %d frames", len(want), len(trace.Frames))
			}
			if len(got) != len(want) {
				t.Fatalf("cluster completed %d rounds, engine %d", len(got), len(want))
			}
			scheduled := 0
			for i := range want {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Fatalf("round %d diverged:\nengine:  %+v\ncluster: %+v", i, want[i], got[i])
				}
				scheduled += want[i].Objects
			}
			if scheduled == 0 {
				t.Fatal("no round scheduled any object")
			}

			shadowed := 0
			for cam := 0; cam < n; cam++ {
				if len(nodeFrames[cam]) != len(engFrames.snaps) {
					t.Fatalf("camera %d emitted %d snapshots, engine %d", cam, len(nodeFrames[cam]), len(engFrames.snaps))
				}
				for fi, snap := range engFrames.snaps {
					e, c := snap.Cameras[cam], nodeFrames[cam][fi].Cameras[0]
					shadowed += e.Shadows
					if adapt.KeyFrame(fi, horizon, 1) {
						// A node's key-frame snapshot precedes the assignment,
						// the engine's follows it: demotion moves tracks to
						// shadows, so only their sum is comparable there.
						e.Tracks, c.Tracks = e.Tracks+e.Shadows, c.Tracks+c.Shadows
						e.Shadows, c.Shadows = 0, 0
					}
					if e != c {
						t.Fatalf("frame %d camera %d diverged:\nengine: %+v\nnode:   %+v", fi, cam, e, c)
					}
				}
			}
			if shadowed == 0 {
				t.Fatal("no camera ever held a shadow: the distributed stage was not exercised")
			}
		})
	}
}
