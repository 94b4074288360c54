package pipeline

import "mvs/internal/gpu"

// TenantExecutor is the engine's seam to a shared GPU serving layer
// (internal/serve): when Config.Serve.Executor is set, the engine stops
// pricing GPU work on its private per-camera executors and instead
// submits each frame's inspection requests — one per live camera, in
// ascending camera order — to the executor, which returns the modelled
// latency and batch figures after scheduling the work (possibly
// consolidated with other tenants' requests into shared batches).
//
// The engine can defer pricing this way because modelled GPU latency is
// purely observational inside a frame: detection and tracking consume
// the region geometry, never the executor's result, so collecting the
// requests while the cameras are stepped and resolving them
// afterwards is bit-identical to pricing them inline
// (docs/SERVING.md, determinism contract).
//
// SubmitFrame blocks until the work is priced — for the multi-tenant
// pool, until every active tenant has submitted its frame for the same
// epoch — and must return one ExecResult per request, in request order.
// The results are the executor's storage, valid until the same tenant's
// next SubmitFrame; the engine reads them before it steps again. The
// request slice and its task lists are the executor's to keep: the
// engine never touches them again.
// Implementations must be safe for concurrent SubmitFrame calls from
// different tenants (each engine calls from its own goroutine).
type TenantExecutor interface {
	SubmitFrame(frame int, reqs []ExecRequest) ([]ExecResult, ExecStats, error)
}

// ExecRequest is one camera's inspection work for one frame: either a
// full-frame inspection (Full, key frames and Full mode) or a batch of
// partial-region tasks (regular frames). Tasks may be empty — an idle
// camera still submits, so the executor's epoch accounting sees every
// live camera.
type ExecRequest struct {
	// Cam is the tenant-local camera index.
	Cam int
	// Full marks a full-frame inspection; Tasks is ignored when set.
	Full bool
	// Tasks are the partial-region inspection tasks, in slicing order.
	Tasks []gpu.Task
}

// ExecResult prices one request. For full-frame requests only Latency
// is set, matching the engine's local path (batch counters describe
// partial-inspection batches only).
type ExecResult struct {
	// Cost is the camera's priced frame: Latency includes any executor
	// queueing delay, and Batches and Images count the batches the
	// camera's tasks landed in and the tasks actually inspected (after
	// any admission shedding).
	gpu.Cost
	// Shed counts this camera's tasks dropped by admission control.
	Shed int
}

// ExecStats carries the executor's cumulative per-tenant counters,
// restated with every reply so the engine can stamp them into frame
// snapshots and its final Report.
type ExecStats struct {
	// QueueDepth is the number of batches still executing past the end
	// of the epoch the reply priced — the executor backlog behind this
	// tenant's frame.
	QueueDepth int
	// SharedBatches is the cumulative count of batches this tenant
	// shared with at least one other tenant.
	SharedBatches int
	// ShedTasks is the cumulative count of this tenant's tasks dropped
	// by admission control.
	ShedTasks int
	// SLOViolations is the cumulative count of epochs whose priced
	// latency exceeded this tenant's SLO.
	SLOViolations int
}

// Serve couples an engine to a shared executor pool. The zero value —
// no executor — runs GPU work on the engine's private per-camera
// executors, exactly as before the serving layer existed.
type Serve struct {
	// Tenant labels this engine's snapshots with its tenant identity
	// (the metrics "tenant" key). Empty leaves the key absent.
	Tenant string
	// Executor, when non-nil, receives every frame's inspection work.
	// The pool implementation is serve.Pool; serve.NewLocal provides a
	// bit-identical single-tenant passthrough.
	Executor TenantExecutor
}
