package serve

import (
	"fmt"
	"slices"
	"sync"

	"mvs/internal/gpu"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
)

// Local is a single-tenant passthrough executor: one private
// gpu.Executor per camera, priced synchronously, no pool, no barrier.
// An engine wired to a Local produces bit-identical modelled output to
// the same engine pricing work on its own executors — the anchor of the
// serving layer's determinism contract (tested in this package) and a
// convenient stub wherever a pipeline.TenantExecutor is required but
// consolidation is not wanted.
type Local struct {
	mu    sync.Mutex
	execs []*gpu.Executor
	out   []pipeline.ExecResult // SubmitFrame's result, reused
}

// NewLocal builds a passthrough over one executor per camera profile.
func NewLocal(profiles []*profile.Profile) (*Local, error) {
	execs := make([]*gpu.Executor, len(profiles))
	for i, prof := range profiles {
		ex, err := gpu.NewExecutor(prof)
		if err != nil {
			return nil, fmt.Errorf("serve: camera %d: %w", i, err)
		}
		execs[i] = ex
	}
	return &Local{execs: execs}, nil
}

// SubmitFrame implements pipeline.TenantExecutor by running each
// request on the camera's private executor, exactly as the engine's
// local path would have. The results are the Local's buffer, valid
// until the next SubmitFrame; a warm Local allocates nothing.
func (l *Local) SubmitFrame(frame int, reqs []pipeline.ExecRequest) ([]pipeline.ExecResult, pipeline.ExecStats, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.out = slices.Grow(l.out[:0], len(reqs))[:len(reqs)]
	clear(l.out)
	out := l.out
	for i, r := range reqs {
		if r.Cam < 0 || r.Cam >= len(l.execs) {
			return nil, pipeline.ExecStats{}, fmt.Errorf("serve: request for camera %d, have %d", r.Cam, len(l.execs))
		}
		cost, err := l.execs[r.Cam].Price(r.Full, r.Tasks)
		if err != nil {
			return nil, pipeline.ExecStats{}, fmt.Errorf("serve: camera %d: %w", r.Cam, err)
		}
		out[i].Cost = cost
	}
	return out, pipeline.ExecStats{}, nil
}
