package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gnnavigator/internal/dataset"
	"gnnavigator/internal/tensor"
)

// childResult is what one repetition hands back to the parent (JSON on
// file descriptor 3). Values are keyed by declared metric name; a key
// starting with "_" is a raw number the parent derives metrics from.
type childResult struct {
	Workload    string             `json:"workload"`
	Mode        string             `json:"mode"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	NumCPU      int                `json:"num_cpu"`
	ReadyUnixNs int64              `json:"ready_unix_ns"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Errors      []string           `json:"errors,omitempty"`
	Notes       []string           `json:"notes,omitempty"`
	Digest      string             `json:"digest,omitempty"`
	Values      map[string]float64 `json:"values"`
	// Samples are a serve measure child's successful request latencies in
	// ms; the parent pools them for the run's percentiles and drops them.
	Samples []float64 `json:"samples,omitempty"`
}

// child is one repetition of one workload in a fresh process.
type child struct {
	workload string
	traced   bool
	seed     int64
	// slice is how long a time-boxed (serve) workload measures: the
	// run's -seconds shared among its children.
	slice  time.Duration
	outDir string
	tr     *tracer // nil unless traced
	res    childResult

	start time.Time // of the measured phase
	mem   runtime.MemStats
}

func runChild(workload, mode string, seed int64, seconds int, outDir string) int {
	c := &child{
		workload: workload, traced: mode == "trace", seed: seed,
		slice:  time.Duration(seconds) * time.Second / repsPerRun,
		outDir: outDir,
		res: childResult{
			Workload: workload, Mode: mode,
			GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Values: map[string]float64{},
		},
	}
	// Guard rail: a knob that survived the parent's scrub would silently
	// turn the defaults being measured into something else.
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GNNAV_") {
			fmt.Fprintf(os.Stderr, "bench child: refusing to start with %s set\n", kv)
			return 2
		}
	}
	if c.traced {
		c.tr = newTracer()
	}
	run := map[string]func(){
		wN: c.navigate, wT: c.train, wS: c.sweep, wZ: c.serve, wC: c.serve,
	}[workload]
	if run == nil || (mode != "measure" && mode != "trace") {
		fmt.Fprintf(os.Stderr, "bench child: unknown workload %q or mode %q\n", workload, mode)
		return 2
	}

	t := time.Now()
	for _, name := range dataset.Names() {
		if _, err := dataset.Load(name); err != nil {
			c.fail("dataset %s: %v", name, err)
		}
	}
	if !c.traced {
		c.res.Values["dataset.load_s"] = time.Since(t).Seconds()
		c.res.Values["tensor.workers"] = float64(tensor.Parallelism())
	}
	run()
	if c.traced {
		path := filepath.Join(outDir, "trace-"+workload+".json")
		if err := c.tr.write(path, fmt.Sprintf("%s/seed%d", workload, seed)); err != nil {
			c.fail("trace: %v", err)
		}
	}

	out := os.NewFile(3, "result")
	if err := json.NewEncoder(out).Encode(&c.res); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
		return 2
	}
	return 0
}

// fail records a failed check; the parent turns any into correct=false.
func (c *child) fail(format string, a ...any) {
	c.res.Errors = append(c.res.Errors, fmt.Sprintf(format, a...))
}

func (c *child) note(format string, a ...any) {
	c.res.Notes = append(c.res.Notes, fmt.Sprintf(format, a...))
}

func (c *child) set(name string, v float64) { c.res.Values[name] = v }

// ready ends set-up and starts the measured phase.
func (c *child) ready() {
	runtime.ReadMemStats(&c.mem)
	c.start = time.Now()
	c.res.ReadyUnixNs = c.start.UnixNano()
}

// finish ends the measured phase of a measure child: wall is its length
// and ops the operations completed in it. It records the end-to-end
// throughput and the Go runtime's cost per operation.
func (c *child) finish(wall time.Duration, ops, allocOps float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.set("_wall_s", wall.Seconds())
	c.set("ops_per_s", ops/wall.Seconds())
	c.set("go.alloc_mb", float64(m.TotalAlloc-c.mem.TotalAlloc)/(1<<20))
	c.set("go.mallocs_per_op", float64(m.Mallocs-c.mem.Mallocs)/allocOps)
	c.set("go.gc_pause_ms", float64(m.PauseTotalNs-c.mem.PauseTotalNs)/1e6)
	c.set("go.num_gc", float64(m.NumGC-c.mem.NumGC))
}

// oneOp sets both latency metrics of a workload whose caller-visible
// operation is the whole run.
func (c *child) oneOp(wall time.Duration) {
	ms := float64(wall) / float64(time.Millisecond)
	c.set("latency_p50_ms", ms)
	c.set("latency_p99_ms", ms)
}

// digestOf hashes the printed form of v: the determinism contract makes
// every output a pure function of the inputs, so repetitions must agree
// to the last bit.
func digestOf(v ...any) string {
	h := sha256.New()
	for _, x := range v {
		fmt.Fprintf(h, "%+v\n", x)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// timeIt returns how long f took.
func timeIt(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}
