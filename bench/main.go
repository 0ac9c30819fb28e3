// Command bench is the repository's one benchmark: five workloads over
// the navigator (gnnavigator) and the server (gnnserve), end-to-end
// metrics from an untraced pass and per-layer metrics from a traced one.
// See README.md in this directory.
//
//	go run ./bench                          # all five workloads, untraced
//	go run ./bench -trace 1                 # per-layer metrics and traces
//	go run ./bench -workload train -seed 7  # one workload
//	go run ./bench -compare a.json b.json   # regression gate
//
// The parent process only orchestrates: every repetition runs in a fresh
// child (this binary re-executed with -child), because calibration
// records, compiled plans, datasets and baseline accuracies are memoised
// process-wide and a second in-process repetition would time the memo.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

const (
	// repsPerRun is how many fresh children an untraced run measures;
	// every reported number is the median of them.
	repsPerRun = 3
	// runSeconds is BENCHMARK.json's run_seconds.
	runSeconds = 24
)

func main() {
	var (
		workloadFlag = flag.String("workload", "", "comma-separated workloads (default: all five)")
		seed         = flag.Int64("seed", 1, "workload generator seed")
		seconds      = flag.Int("seconds", runSeconds, "how long a serve run measures, shared among its children; the other workloads are fixed work")
		trace        = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for results.json, traces and scratch files")
		compare      = flag.Bool("compare", false, "compare two results.json files given as arguments")
		childMode    = flag.String("child", "", "internal: run one repetition in this mode (measure|trace)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *childMode != "" {
		os.Exit(runChild(*workloadFlag, *childMode, *seed, *seconds, *outDir))
	}
	// A serve child measures for a third of -seconds and has 50 s to live.
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fatalf("bench: -seconds must be 1 to 60 and -trace 0 or 1")
	}

	var names []string
	if *workloadFlag == "" {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else {
		names = strings.Split(*workloadFlag, ",")
	}
	for _, n := range names {
		if findWorkload(n) == nil {
			fatalf("bench: unknown workload %q", n)
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("bench: %v", err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatalf("bench: %v", err)
	}

	report := &results{Env: envHeader(*seed, *seconds, *trace == 1), Workloads: map[string]*workloadResult{}}
	fmt.Printf("bench: gomaxprocs=%d num_cpu=%d %s commit=%s seed=%d clients=%d\n",
		report.Env.GoMaxProcs, report.Env.NumCPU, report.Env.GoVersion, report.Env.Commit, *seed, loadClients())
	allCorrect := true
	for _, name := range names {
		r := runWorkload(exe, name, *seed, *seconds, *trace == 1, *outDir)
		report.Workloads[name] = r
		printWorkload(name, r, *trace == 1)
		// The driver reads the last line of standard output: the last
		// workload's result object.
		fmt.Println(contractLine(r, *trace == 1))
		allCorrect = allCorrect && r.Correct
	}
	blob, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		fatalf("bench: %v", err)
	}
	if err := os.WriteFile(filepath.Join(*outDir, "results.json"), append(blob, '\n'), 0o644); err != nil {
		fatalf("bench: %v", err)
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
	os.Exit(2)
}

// envInfo is the header of every results file.
type envInfo struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Clients    int    `json:"clients"`
}

func envHeader(seed int64, seconds int, traced bool) envInfo {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envInfo{runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit, seed, seconds, traced, loadClients()}
}

// summary is one metric over the children of a run: Values holds each
// child's number, Min and Max their range, and Value what the run
// reports — their median, except for the serve workloads' two latency
// percentiles, which are taken over the children's pooled samples.
type summary struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func summarize(unit string, v []float64) summary {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return summary{unit, median(v), lo, hi, v}
}

type workloadResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Children  []childResult      `json:"children"`
	Metrics   map[string]summary `json:"metrics"`
}

type results struct {
	Env       envInfo                    `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// runWorkload runs one workload's children in sequence and folds their
// results. Untraced: repsPerRun measure children. Traced: one measure
// child (the untraced wall the overhead ratio is taken against) and one
// trace child.
func runWorkload(exe, name string, seed int64, seconds int, traced bool, outDir string) *workloadResult {
	modes := make([]string, repsPerRun)
	for i := range modes {
		modes[i] = "measure"
	}
	if traced {
		modes = []string{"measure", "trace"}
	}
	r := &workloadResult{Correct: true, Metrics: map[string]summary{}}
	values := map[string][]float64{}
	var digests []string
	var pooled []float64 // the measure children's latency samples
	for i, mode := range modes {
		// Sized so that a run whose every child hangs still ends inside
		// the driver's 180 s.
		timeout := 50 * time.Second
		if mode == "trace" {
			timeout = 100 * time.Second
		}
		c, err := spawn(exe, name, mode, seed, seconds, outDir, timeout)
		if err != nil {
			// A child that crashed or hung is one failed operation; the
			// command goes on and reports it.
			r.Correct = false
			r.Attempted++
			r.Failed++
			r.Errors = append(r.Errors, fmt.Sprintf("child %d (%s): %v", i, mode, err))
			continue
		}
		pooled = append(pooled, c.Samples...)
		c.Samples = nil
		r.Children = append(r.Children, *c)
		r.Attempted += c.Attempted
		r.Failed += c.Failed
		if i == 0 || mode == "trace" {
			r.Notes = append(r.Notes, c.Notes...)
		}
		for _, e := range c.Errors {
			r.Correct = false
			r.Errors = append(r.Errors, fmt.Sprintf("child %d (%s): %s", i, mode, e))
		}
		if c.Digest != "" {
			digests = append(digests, c.Digest)
		}
		for k, v := range c.Values {
			values[k] = append(values[k], v)
		}
	}
	for _, d := range digests {
		if d != digests[0] {
			r.Correct = false
			r.Errors = append(r.Errors, fmt.Sprintf("outputs differ between children given the same seed: digests %v", digests))
			break
		}
	}
	if r.Failed > 0 {
		r.Correct = false
	}
	if traced {
		derive(name, values)
	}

	declared := endToEnd
	if traced {
		declared = perLayer
	}
	for _, m := range declared {
		v, ok := values[m.Name]
		if !traced || m.measuredOn(name) {
			if !ok && !(m.MultiCore && runtime.GOMAXPROCS(0) == 1) {
				r.Correct = false
				r.Errors = append(r.Errors, fmt.Sprintf("metric %s was not measured", m.Name))
			}
		} else if ok {
			r.Correct = false
			r.Errors = append(r.Errors, fmt.Sprintf("metric %s is not declared for workload %s", m.Name, name))
		}
		if ok {
			r.Metrics[m.Name] = summarize(m.Unit, v)
		}
	}
	if !traced {
		// The guards ride along on every run, for -compare.
		for _, m := range perLayer {
			if v, ok := values[m.Name]; ok && m.AbsBound > 0 {
				r.Metrics[m.Name] = summarize(m.Unit, v)
			}
		}
		// A tail over the pooled samples of all children rests on three
		// times the requests any one child's does.
		slices.Sort(pooled)
		for name, p := range map[string]float64{"latency_p50_ms": 50, "latency_p99_ms": 99} {
			if s, ok := r.Metrics[name]; ok && len(pooled) > 0 {
				s.Value = percentile(pooled, p)
				r.Metrics[name] = s
			}
		}
	}
	for k := range values {
		if !strings.HasPrefix(k, "_") && !isDeclared(k) {
			r.Correct = false
			r.Errors = append(r.Errors, fmt.Sprintf("child emitted undeclared metric %q", k))
		}
	}
	return r
}

// derive computes the per-layer metrics that set one child's number
// against another's: what the trace child's layers leave unexplained of
// the wall the measure child took.
func derive(workload string, values map[string][]float64) {
	get := func(name string) float64 {
		if v := values[name]; len(v) == 1 {
			return v[0]
		}
		return 0
	}
	ratio := func(name string, num, den float64) {
		if num > 0 && den > 0 {
			values[name] = []float64{num / den}
		}
	}
	share := func(name string, part, whole float64) {
		if part > 0 && whole > 0 {
			values[name] = []float64{1 - part/whole}
		}
	}
	ratio("trace.overhead_ratio", get("ops_per_s"), get("_traced_ops_per_s"))
	switch workload {
	case wN:
		share("estimator.calibrate_gap_share",
			get("estimator.collect_s")+get("estimator.baseline_s")+get("estimator.fit_s"), get("core.calibrate_s"))
	case wT:
		share("backend.ladder_residual_share", get("backend.ladder_sum_s"), get("backend.run_s"))
		ratio("pipeline.host_share", get("pipeline.host_s"), get("backend.run_s"))
		ratio("pipeline.prefetch_speedup", get("backend.run_s"), get("backend.prefetch2_run_s"))
	}
}

func isDeclared(name string) bool {
	for _, m := range endToEnd {
		if m.Name == name {
			return true
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}

// spawn runs one child to completion under a hard timeout and returns
// its result with the two numbers only the parent can take: set-up time
// from process spawn, and peak resident memory.
func spawn(exe, name, mode string, seed int64, seconds int, outDir string, timeout time.Duration) (*childResult, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer pr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", name,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", outDir)
	// The child must see the defaults a user gets: no GNNAV_* knob may
	// leak in from the caller's shell. pipeline and tensor read theirs
	// in init(), so the scrub has to happen before the process exists.
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GNNAV_") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.ExtraFiles = []*os.File{pw}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		pw.Close()
		return nil, err
	}
	pw.Close()
	var c childResult
	decErr := json.NewDecoder(pr).Decode(&c)
	waitErr := cmd.Wait()
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return nil, fmt.Errorf("killed after %v", timeout)
	}
	if waitErr != nil {
		return nil, waitErr
	}
	if decErr != nil {
		return nil, fmt.Errorf("no result: %w", decErr)
	}
	if c.Values == nil {
		c.Values = map[string]float64{}
	}
	c.Values["setup_s"] = float64(c.ReadyUnixNs-start.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.Values["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &c, nil
}

// contractLine renders the result object the driver parses: every
// declared metric of the pass, with 0 for a per-layer metric whose layer
// is not on this workload's path.
func contractLine(r *workloadResult, traced bool) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	declared := endToEnd
	if traced {
		declared = perLayer
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]val{}}
	for _, m := range declared {
		out.Metrics[m.Name] = val{r.Metrics[m.Name].Value, m.Unit}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		fatalf("bench: %v", err)
	}
	return string(blob)
}

func printWorkload(name string, r *workloadResult, traced bool) {
	pass := "end-to-end, untraced"
	declared := endToEnd
	if traced {
		pass, declared = "per-layer, traced", perLayer
	}
	fmt.Printf("\n== %s (%s; %d children; attempted %d, failed %d, correct %v)\n",
		name, pass, len(r.Children), r.Attempted, r.Failed, r.Correct)
	for _, m := range declared {
		s, ok := r.Metrics[m.Name]
		switch {
		case !ok && traced && !m.measuredOn(name):
			continue
		case !ok:
			fmt.Printf("  %-34s %14s %-8s\n", m.Name, "n/a", m.Unit)
		case len(s.Values) > 1:
			fmt.Printf("  %-34s %14.6g %-8s min %.6g max %.6g n=%d\n", m.Name, s.Value, m.Unit, s.Min, s.Max, len(s.Values))
		default:
			fmt.Printf("  %-34s %14.6g %-8s\n", m.Name, s.Value, m.Unit)
		}
	}
	if !traced {
		for _, m := range perLayer {
			if s, ok := r.Metrics[m.Name]; ok && m.AbsBound > 0 {
				fmt.Printf("  %-34s %14.6g %-8s guard: a function of the seed, bound %g abs\n", m.Name, s.Value, m.Unit, m.AbsBound)
			}
		}
	}
	if o := r.Metrics["trace.overhead_ratio"].Value; o > 1.05 {
		fmt.Printf("  WARNING: the traced walk ran %.0f%% slower than the untraced child: read this workload's layer numbers with care\n", 100*(o-1))
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, e := range r.Errors {
		fmt.Printf("  ERROR: %s\n", e)
	}
}
