// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the Go reproduction stack. Each experiment has a
// Run* function that writes the same rows/series the paper reports to an
// io.Writer and returns the structured results; the benchtab CLI prints
// them and this package's tests check them.
//
// Fidelity levels: Quick trims calibration budgets and sweep densities so
// the full suite finishes in minutes; Full uses the evaluation defaults.
package experiments

import (
	"fmt"
	"io"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/model"
)

// Fidelity selects experiment budgets.
type Fidelity int

// Fidelity levels.
const (
	Quick Fidelity = iota
	Full
)

// Task names a dataset+model pair from Table 1.
type Task struct {
	Name    string
	Dataset string
	Model   model.Kind
}

// Table1Tasks returns the paper's three applications.
func Table1Tasks() []Task {
	return []Task{
		{Name: "PR+SAGE", Dataset: dataset.OgbnProducts, Model: model.SAGE},
		{Name: "RD2+SAGE", Dataset: dataset.Reddit2, Model: model.SAGE},
		{Name: "AR+GAT", Dataset: dataset.OgbnArxiv, Model: model.GAT},
	}
}

// platform is the default evaluation platform.
const platform = "rtx4090"

// epochs returns the training epoch budget for the fidelity.
func epochs(f Fidelity) int {
	if f == Quick {
		return 2
	}
	return 3
}

// calibSamples returns the per-dataset estimator calibration budget.
func calibSamples(f Fidelity) int {
	if f == Quick {
		return 12
	}
	return 20
}

// Row is one labeled result line of a table.
type Row struct {
	Label    string
	TimeSec  float64
	MemoryGB float64
	Accuracy float64
}

// speedup formats t relative to a baseline time.
func speedup(baseline, t float64) string {
	if t <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", baseline/t)
}

// memDelta formats memory change relative to a baseline.
func memDelta(baseline, m float64) string {
	if baseline <= 0 {
		return "-"
	}
	d := (m - baseline) / baseline * 100
	if d >= 0 {
		return fmt.Sprintf("+%.1f%%", d)
	}
	return fmt.Sprintf("%.1f%%", d)
}

// printRows renders rows with PyG-relative annotations (Table 1 style).
func printRows(w io.Writer, rows []Row) {
	if len(rows) == 0 {
		return
	}
	base := rows[0]
	fmt.Fprintf(w, "%-12s %10s %8s %10s %8s %8s\n",
		"method", "T(s)", "speedup", "Γ(GB)", "Δmem", "acc")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10.2f %8s %10.2f %8s %7.2f%%\n",
			r.Label, r.TimeSec, speedup(base.TimeSec, r.TimeSec),
			r.MemoryGB, memDelta(base.MemoryGB, r.MemoryGB), 100*r.Accuracy)
	}
}

// runTemplate executes a backend template on a task.
func runTemplate(tpl backend.Template, task Task, ep int) (Row, error) {
	cfg, err := backend.FromTemplate(tpl, task.Dataset, task.Model, platform)
	if err != nil {
		return Row{}, err
	}
	cfg.Epochs = ep
	perf, err := backend.RunWith(cfg, backend.Options{})
	if err != nil {
		return Row{}, err
	}
	return Row{Label: string(tpl), TimeSec: perf.TimeSec, MemoryGB: perf.MemoryGB, Accuracy: perf.Accuracy}, nil
}
