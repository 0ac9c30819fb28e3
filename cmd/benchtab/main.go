// Command benchtab regenerates the paper's tables and figures on the Go
// reproduction stack and prints them as text.
//
// Example:
//
//	benchtab -exp table1            # one experiment
//	benchtab -exp all -full         # everything at full fidelity
//
// Experiments: fig1a, fig1b, fig5, fig6, table1, table2,
// ablation-pruning, ablation-cache, ablation-pipeline, all.
//
// -cpuprofile/-memprofile capture pprof profiles of the run. Wall time,
// memory and latency of the stack itself are measured by bench/.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"gnnavigator/internal/experiments"
	"gnnavigator/internal/tensor"
)

type runner func(io.Writer, experiments.Fidelity) error

func wrap[T any](f func(io.Writer, experiments.Fidelity) (T, error)) runner {
	return func(w io.Writer, fi experiments.Fidelity) error {
		_, err := f(w, fi)
		return err
	}
}

func main() {
	log.SetFlags(0)
	var (
		exp     = flag.String("exp", "all", "experiment to regenerate")
		full    = flag.Bool("full", false, "full fidelity (slower, evaluation defaults)")
		procs   = flag.Int("procs", 0, "tensor kernel workers (0 = GOMAXPROCS, 1 = serial; negative is an error)")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		timeout = flag.Duration("timeout", 0, "wall-clock watchdog (0 = none): exit with status 124 if the run exceeds this, so a hang fails a build instead of wedging it")
	)
	flag.Parse()

	if *timeout > 0 {
		// A watchdog rather than a context: benchtab's experiment drivers
		// predate cancellation plumbing, and for CI the requirement is only
		// that a wedged run dies loudly within the budget.
		time.AfterFunc(*timeout, func() {
			fmt.Fprintf(os.Stderr, "benchtab: timeout after %v\n", *timeout)
			os.Exit(124)
		})
	}

	if *procs < 0 {
		log.Fatalf("-procs %d: a worker count cannot be negative (0 = GOMAXPROCS, 1 = serial)", *procs)
	}
	if *procs > 0 {
		tensor.SetParallelism(*procs)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
	}
	err := dispatch(*exp, *full)
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, ferr := os.Create(*memProf)
		if ferr != nil {
			log.Fatalf("memprofile: %v", ferr)
		}
		runtime.GC() // settle heap so the profile shows retained memory
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			log.Fatalf("memprofile: %v", werr)
		}
		f.Close()
	}
	if err != nil {
		log.Fatal(err)
	}
}

// dispatch runs the named experiment (or all of them); profiles (if
// any) bracket it.
func dispatch(exp string, full bool) error {
	fidelity := experiments.Quick
	if full {
		fidelity = experiments.Full
	}
	all := []struct {
		name string
		run  runner
	}{
		{"fig1a", wrap(experiments.RunFig1a)},
		{"fig1b", wrap(experiments.RunFig1b)},
		{"fig5", wrap(experiments.RunFig5)},
		{"table1", wrap(experiments.RunTable1)},
		{"fig6", wrap(experiments.RunFig6)},
		{"table2", wrap(experiments.RunTable2)},
		{"ablation-pruning", wrap(experiments.RunAblationPruning)},
		{"ablation-cache", wrap(experiments.RunAblationCachePolicy)},
		{"ablation-pipeline", wrap(experiments.RunAblationPipeline)},
	}

	ran := false
	for _, e := range all {
		if exp != "all" && exp != e.name {
			continue
		}
		ran = true
		start := time.Now()
		if err := e.run(os.Stdout, fidelity); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("[%s done in %.1fs]\n\n", e.name, time.Since(start).Seconds())
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
