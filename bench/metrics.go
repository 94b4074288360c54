package main

// metricDef declares one benchmark metric. The same declarations are
// written out as BENCHMARK.json at the repository root; TestDeclaredMatch
// keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd lists the eleven end-to-end metrics every workload reports
// (bench/README.md defines each). Bound is the share of the parent's
// median by which the metric may get worse before a change counts as a
// regression. A bound has to clear, on every workload, three times the
// spread ten runs of one tree show on this host; in a noisy quarter of an
// hour the timings of any workload spread by a tenth and more, which puts
// their bounds at the contract's ceiling (NOISE.md, section 6, says what
// that leaves ungated).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"frames_per_s", "1/s", "higher", 0.25},
	{"frame_p50_us", "us", "lower", 0.25},
	{"key_frame_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_frame", "us", "lower", 0.25},
	{"allocs_per_frame", "count", "lower", 0.01},
	{"bytes_per_frame", "B", "lower", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"recall", "ratio", "higher", 0.005},
	{"modeled_slowest_ms", "ms", "lower", 0.05},
	{"completed_share", "ratio", "higher", 0.001},
}

// layerDef declares one per-layer metric of the traced run. Per-layer
// metrics carry no bound: they explain an end-to-end number, they never
// gate a change.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayer lists the traced run's metrics in the order of the
// layer -> end-to-end table in bench/README.md.
var perLayer = []layerDef{
	// Seam spans: self time per frame at each interface the engine is
	// built from.
	{"span.engine_self_us", "us", "lower"},
	{"span.source_next_us", "us", "lower"},
	{"span.exec_submit_us", "us", "lower"},
	{"span.sink_record_us", "us", "lower"},
	{"span.rounds_record_us", "us", "lower"},
	{"span.store_append_us", "us", "lower"},
	// serve
	{"serve.submit_frame_us", "us", "lower"},
	{"serve.shed_task_share", "ratio", "lower"},
	{"serve.shared_batch_share", "ratio", "higher"},
	{"serve.mean_occupancy", "ratio", "higher"},
	// store
	{"store.append_frame_us", "us", "lower"},
	{"store.record_frame_us", "us", "lower"},
	{"store.bytes_per_frame", "B", "lower"},
	{"store.replay_next_us", "us", "lower"},
	{"store.open_ms", "ms", "lower"},
	// metrics
	{"metrics.snapshot_marshal_ns", "ns", "lower"},
	{"metrics.snapshot_marshal_allocs", "count", "lower"},
	{"metrics.snapshot_bytes", "B", "lower"},
	// ingest path
	{"pipeline.decode_part_ns", "ns", "lower"},
	{"pipeline.decode_part_allocs", "count", "lower"},
	{"pipeline.encode_part_ns", "ns", "lower"},
	{"pipeline.ingest_offer_next_ns", "ns", "lower"},
	{"pipeline.ingest_tcp_parts_per_s", "1/s", "higher"},
	{"gen.late_p50_us", "us", "lower"},
	{"gen.late_p99_us", "us", "lower"},
	{"ingest.queue_depth_max", "count", "lower"},
	{"ingest.shed_parts", "count", "lower"},
	// regular frames
	{"flow.update_us", "us", "lower"},
	{"flow.update_allocs", "count", "lower"},
	{"hungarian.solve20_us", "us", "lower"},
	{"hungarian.solve20_allocs", "count", "lower"},
	{"table2.tracking_us", "us", "lower"},
	{"vision.detect_full_us", "us", "lower"},
	{"vision.detect_regions_us", "us", "lower"},
	{"vision.detect_allocs", "count", "lower"},
	{"gpu.form_batches_us", "us", "lower"},
	{"gpu.run_frame_us", "us", "lower"},
	{"gpu.run_frame_allocs", "count", "lower"},
	{"gpu.packer_add_ns", "ns", "lower"},
	{"table2.batching_us", "us", "lower"},
	{"table2.distributed_us", "us", "lower"},
	{"core.policy_owner_ns", "ns", "lower"},
	// key frames
	{"assoc.associate_us", "us", "lower"},
	{"assoc.associate_allocs", "count", "lower"},
	{"assoc.map_box_ns", "ns", "lower"},
	{"ml.knn_predict_ns", "ns", "lower"},
	{"ml.knn_predict_allocs", "count", "lower"},
	{"core.central_us", "us", "lower"},
	{"core.central_allocs", "count", "lower"},
	{"table2.central_us", "us", "lower"},
	// set-up
	{"pipeline.new_engine_ms", "ms", "lower"},
	{"assoc.cell_coverage_ms", "ms", "lower"},
	{"assoc.train_ms", "ms", "lower"},
	{"scene.world_run_us_per_frame", "us", "lower"},
	// recorded so the camera/round kernel refactor has a before
	{"adapt.observe_tick_ns", "ns", "lower"},
	{"cluster.keyframe_rtt_us", "us", "lower"},
	{"cluster.envelope_codec_ns", "ns", "lower"},
	// diagnostics
	{"engine.frame_p99_us", "us", "lower"},
	{"engine.key_frame_p90_us", "us", "lower"},
	{"raw.frames_per_s", "1/s", "higher"},
	{"raw.frame_p50_us", "us", "lower"},
	{"host.ref_us", "us", "lower"},
	{"host.speed", "ratio", "higher"},
	{"host.steal_share", "ratio", "lower"},
	{"gc.cycles_per_kframe", "count", "lower"},
	{"gc.pause_total_ms", "ms", "lower"},
	{"pipeline.workers_speedup", "ratio", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
	{"failed_share", "ratio", "lower"},
}

// metricValue is one reported number, in the shape the acceptance
// driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
