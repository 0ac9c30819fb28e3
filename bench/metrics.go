package main

// The tables here are the benchmark's declared names. BENCHMARK.json at
// the repository root repeats them for the driver; a unit test keeps the
// two identical, and the parent refuses a child that emits a name that
// is not declared for its workload, or omits one that is.

type workload struct {
	Name, Why string
	// OneOp marks a fixed-work workload whose caller issues one operation
	// per process: both latency metrics are that operation's wall time,
	// the inverse of ops_per_s, so -compare judges ops_per_s alone.
	OneOp bool
}

var workloads = []workload{
	{"navigate", "calibrate, explore, train one guideline: 95% is the probe fan-out of estimator.CollectWith, so dse and final training barely register", true},
	{"train", "one long backend.RunWith with an LRU feature cache: tensor, nn and model kernels do nearly all the work", true},
	{"sweep", "48 timing-only probes with plan replay: sample, plan and cache construction carry it, tensor kernels do nothing", true},
	{"serve-zipf", "closed-loop HTTP, 1-3 Zipf(1.3) vertices per request: latency is coalescer wait plus HTTP, the cache is read-mostly", false},
	{"serve-scan", "same server, 64 uniform vertices per request: flushes fire on size, time goes to gather and forward, the LRU evicts on every flush", false},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metric struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	Bound float64
	// On lists the workloads whose traced run measures a per-layer
	// metric; on the others the layer is not on the path and it reads 0.
	// Empty means every workload.
	On []string
	// MultiCore marks a metric that compares parallel against serial
	// execution: n/a, and absent, at gomaxprocs=1.
	MultiCore bool
	// AbsBound marks a guard: a per-layer metric that is a pure function
	// of the seed (the determinism contract), which the measure children
	// emit on every run and -compare holds to this absolute bound — the
	// check that a speed-up did not change the arithmetic.
	AbsBound float64
}

const (
	wN, wT, wS, wZ, wC = "navigate", "train", "sweep", "serve-zipf", "serve-scan"
)

// endToEnd is what a user of the system sees. Every workload reports
// every one of them (the driver's contract), so each is defined in terms
// of "one operation as the caller sees it": a navigation, a training
// seed, a sampled batch, an HTTP request — see README.md.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

var perLayer = []metric{
	{Name: "core.calibrate_s", Unit: "s", Better: "lower", On: []string{wN}},
	{Name: "core.explore_s", Unit: "s", Better: "lower", On: []string{wN}},
	{Name: "core.train_s", Unit: "s", Better: "lower", On: []string{wN}},
	{Name: "core.residual_share", Unit: "ratio", Better: "lower", On: []string{wN}},

	{Name: "estimator.collect_s", Unit: "s", Better: "lower", On: []string{wN, wS}},
	{Name: "estimator.collect_probes", Unit: "count", Better: "lower", On: []string{wN, wS}},
	{Name: "estimator.probe_busy_s", Unit: "s", Better: "lower", On: []string{wN, wS}},
	{Name: "estimator.fanout_width", Unit: "ratio", Better: "higher", On: []string{wN, wS}},
	{Name: "estimator.baseline_s", Unit: "s", Better: "lower", On: []string{wN}},
	{Name: "estimator.fit_s", Unit: "s", Better: "lower", On: []string{wN}},
	{Name: "estimator.predict_us", Unit: "us", Better: "lower", On: []string{wN}},
	{Name: "estimator.calibrate_gap_share", Unit: "ratio", Better: "lower", On: []string{wN}},
	{Name: "estimator.fidelity_time_relerr", Unit: "ratio", Better: "lower", On: []string{wN}, AbsBound: 0.01},
	{Name: "estimator.fidelity_mem_relerr", Unit: "ratio", Better: "lower", On: []string{wN}, AbsBound: 0.01},
	{Name: "estimator.fidelity_acc_abserr", Unit: "ratio", Better: "lower", On: []string{wN}, AbsBound: 0.005},

	{Name: "dse.explore_s", Unit: "s", Better: "lower", On: []string{wN}},
	{Name: "dse.leaves", Unit: "count", Better: "lower", On: []string{wN}},
	{Name: "dse.pruned", Unit: "count", Better: "higher", On: []string{wN}},
	{Name: "dse.leaves_per_s", Unit: "1/s", Better: "higher", On: []string{wN}},
	{Name: "dse.pareto_ms", Unit: "ms", Better: "lower", On: []string{wN}},
	{Name: "dse.decide_us", Unit: "us", Better: "lower", On: []string{wN}},

	{Name: "plan.compiles", Unit: "count", Better: "lower", On: []string{wN, wS}},
	{Name: "plan.cache_hits", Unit: "count", Better: "higher", On: []string{wN, wS}},
	{Name: "plan.compile_ms_p50", Unit: "ms", Better: "lower", On: []string{wN, wS}},
	{Name: "plan.replay_us_p50", Unit: "us", Better: "lower", On: []string{wN, wS}},
	{Name: "plan.bytes", Unit: "B", Better: "lower", On: []string{wN, wS}},

	{Name: "backend.run_s", Unit: "s", Better: "lower", On: []string{wT}},
	{Name: "backend.prefetch2_run_s", Unit: "s", Better: "lower", On: []string{wT}},
	{Name: "backend.ladder_sum_s", Unit: "s", Better: "lower", On: []string{wT}},
	{Name: "backend.ladder_residual_share", Unit: "ratio", Better: "lower", On: []string{wT}},
	{Name: "backend.probe_ms_p50", Unit: "ms", Better: "lower", On: []string{wN, wS}},
	{Name: "backend.probe_ms_max", Unit: "ms", Better: "lower", On: []string{wN, wS}},
	{Name: "backend.iterations", Unit: "count", Better: "lower", On: []string{wN, wT, wS}},
	{Name: "backend.val_accuracy", Unit: "ratio", Better: "higher", On: []string{wN, wT}, AbsBound: 0.002},

	{Name: "pipeline.host_s", Unit: "s", Better: "lower", On: []string{wT, wS}},
	{Name: "pipeline.host_batch_ms_p50", Unit: "ms", Better: "lower", On: []string{wT, wS}},
	{Name: "pipeline.host_batch_ms_p99", Unit: "ms", Better: "lower", On: []string{wT, wS}},
	{Name: "pipeline.host_share", Unit: "ratio", Better: "lower", On: []string{wT}},
	{Name: "pipeline.prefetch_speedup", Unit: "ratio", Better: "higher", On: []string{wT}},
	{Name: "pipeline.batches", Unit: "count", Better: "lower", On: []string{wT, wS}},

	{Name: "sample.batch_ms_p50", Unit: "ms", Better: "lower", On: []string{wT, wS, wZ, wC}},
	{Name: "sample.batch_ms_p99", Unit: "ms", Better: "lower", On: []string{wT, wS, wZ, wC}},
	{Name: "sample.vertices_per_batch", Unit: "count", Better: "lower", On: []string{wT, wS, wZ, wC}},
	{Name: "sample.edges_per_batch", Unit: "count", Better: "lower", On: []string{wT, wS, wZ, wC}},
	{Name: "sample.share", Unit: "ratio", Better: "lower", On: []string{wT, wS, wZ, wC}},

	{Name: "cache.build_ms", Unit: "ms", Better: "lower", On: []string{wT, wS, wZ, wC}},
	{Name: "cache.access_us_p50", Unit: "us", Better: "lower", On: []string{wT, wS}},
	{Name: "cache.gather_ms_p50", Unit: "ms", Better: "lower", On: []string{wT, wZ, wC}},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", On: []string{wT, wS, wZ, wC}},
	{Name: "cache.updates", Unit: "count", Better: "lower", On: []string{wT, wS, wZ, wC}},
	{Name: "cache.transfer_mb", Unit: "MB", Better: "lower", On: []string{wT, wS, wZ, wC}},

	{Name: "model.forward_ms_p50", Unit: "ms", Better: "lower", On: []string{wT}},
	{Name: "model.backward_ms_p50", Unit: "ms", Better: "lower", On: []string{wT}},
	{Name: "model.flops_per_batch", Unit: "count", Better: "lower", On: []string{wT}},
	{Name: "model.forward_gflops", Unit: "GFLOP/s", Better: "higher", On: []string{wT}},
	{Name: "model.save_ms", Unit: "ms", Better: "lower", On: []string{wZ, wC}},
	{Name: "model.load_ms", Unit: "ms", Better: "lower", On: []string{wZ, wC}},
	{Name: "nn.loss_ms_p50", Unit: "ms", Better: "lower", On: []string{wT}},
	{Name: "nn.opt_step_ms_p50", Unit: "ms", Better: "lower", On: []string{wT}},

	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher", On: []string{wT}},
	{Name: "tensor.gather_gbps", Unit: "GB/s", Better: "higher", On: []string{wT}},
	{Name: "tensor.scatter_add_gbps", Unit: "GB/s", Better: "higher", On: []string{wT}},
	{Name: "tensor.parallel_speedup", Unit: "ratio", Better: "higher", On: []string{wT}, MultiCore: true},
	{Name: "tensor.workers", Unit: "count", Better: "higher"},

	{Name: "infer.predict_ms_p50", Unit: "ms", Better: "lower", On: []string{wZ, wC}},
	{Name: "infer.predict_ms_p99", Unit: "ms", Better: "lower", On: []string{wZ, wC}},
	{Name: "infer.coalesced_ms_p50", Unit: "ms", Better: "lower", On: []string{wZ, wC}},
	{Name: "infer.coalesce_wait_ms_p50", Unit: "ms", Better: "lower", On: []string{wZ, wC}},
	{Name: "infer.flush_width_mean", Unit: "count", Better: "higher", On: []string{wZ, wC}},
	{Name: "infer.flushes", Unit: "count", Better: "lower", On: []string{wZ, wC}},
	{Name: "infer.accuracy_s", Unit: "s", Better: "lower", On: []string{wT}},

	{Name: "serve.handler_ms_p50", Unit: "ms", Better: "lower", On: []string{wZ, wC}},
	{Name: "serve.http_overhead_ms_p50", Unit: "ms", Better: "lower", On: []string{wZ, wC}},
	{Name: "serve.reject_us_p50", Unit: "us", Better: "lower", On: []string{wZ, wC}},
	{Name: "serve.requests", Unit: "count", Better: "higher", On: []string{wZ, wC}},
	{Name: "serve.errors", Unit: "count", Better: "lower", On: []string{wZ, wC}},

	{Name: "dataset.load_s", Unit: "s", Better: "lower"},
	{Name: "go.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "go.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.num_gc", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// measuredOn reports whether workload w's traced run measures m.
func (m metric) measuredOn(w string) bool {
	if len(m.On) == 0 {
		return true
	}
	for _, o := range m.On {
		if o == w {
			return true
		}
	}
	return false
}
