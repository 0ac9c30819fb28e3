package experiments

import (
	"fmt"
	"io"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/core"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/dse"
	"gnnavigator/internal/model"
)

// Fig6Point is one actually-executed design-space candidate on
// Reddit2+SAGE (each scatter point of Fig. 6).
type Fig6Point struct {
	Cfg      backend.Config
	TimeSec  float64
	MemoryGB float64
	Accuracy float64
	OnFront  bool
	// Picked marks the Navigator guideline closest to this point:
	// "" (none), "balance", or "extreme".
	Picked string
}

// Fig6Result carries both panels: (a) time vs memory, (b) memory vs
// accuracy, over the same exhausted ground-truth sweep.
type Fig6Result struct {
	Points []Fig6Point
	// FrontTM / FrontMA index Points on the two 2-D Pareto fronts.
	FrontTM, FrontMA []int
	// GuidelineHits counts Navigator picks that land on (or tie with) the
	// measured front.
	GuidelineHits int
}

// fig6Grid is the coarse exhaustive grid actually executed.
func fig6Grid(f Fidelity) []backend.Config {
	batch := []int{512, 1024, 2048}
	fan := [][]int{{5, 5}, {10, 5}, {25, 10}}
	ratios := []float64{0, 0.15, 0.45}
	biases := []float64{0, 0.9}
	if f == Quick {
		batch = []int{512, 1024}
		ratios = []float64{0, 0.3}
	}
	var out []backend.Config
	for _, b := range batch {
		for _, fo := range fan {
			for _, r := range ratios {
				for _, bi := range biases {
					cfg := backend.Config{
						Dataset:  dataset.Reddit2,
						Platform: platform,
						Model:    model.SAGE,
						Hidden:   64, Layers: 2, Heads: 2,
						Epochs: 2, LR: 0.01, Seed: 17,
						Sampler:     backend.SamplerSAGE,
						BatchSize:   b,
						Fanouts:     fo,
						CacheRatio:  r,
						CachePolicy: cache.None,
						BiasRate:    0,
					}
					if r > 0 {
						cfg.CachePolicy = cache.Static
						cfg.BiasRate = bi
					} else if bi > 0 {
						continue
					}
					out = append(out, cfg)
				}
			}
		}
	}
	return out
}

// dominates2D reports a ≤ b on both minimized axes with one strict.
func dominates2D(ax, ay, bx, by float64) bool {
	if ax > bx || ay > by {
		return false
	}
	return ax < bx || ay < by
}

// RunFig6 exhausts the coarse design space with real executions, draws the
// measured Pareto fronts of both panels, and checks that the Navigator's
// balance/extreme guidelines land on them.
func RunFig6(w io.Writer, f Fidelity) (*Fig6Result, error) {
	grid := fig6Grid(f)
	fmt.Fprintf(w, "# Fig 6: design space exhausted on Reddit2+SAGE (%d configs, real runs)\n", len(grid))
	res := &Fig6Result{}
	for _, cfg := range grid {
		perf, err := backend.RunWith(cfg, backend.Options{})
		if err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", cfg.Label(), err)
		}
		res.Points = append(res.Points, Fig6Point{
			Cfg: cfg, TimeSec: perf.TimeSec, MemoryGB: perf.MemoryGB, Accuracy: perf.Accuracy,
		})
	}
	// Panel (a): minimize (T, Γ). Panel (b): minimize (Γ, -Acc).
	for i, p := range res.Points {
		onTM, onMA := true, true
		for j, q := range res.Points {
			if i == j {
				continue
			}
			if dominates2D(q.TimeSec, q.MemoryGB, p.TimeSec, p.MemoryGB) {
				onTM = false
			}
			if dominates2D(q.MemoryGB, -q.Accuracy, p.MemoryGB, -p.Accuracy) {
				onMA = false
			}
		}
		if onTM {
			res.FrontTM = append(res.FrontTM, i)
		}
		if onMA {
			res.FrontMA = append(res.FrontMA, i)
		}
		if onTM || onMA {
			res.Points[i].OnFront = true
		}
	}

	// Navigator guidelines over the same space.
	nav, err := core.New(core.Input{
		Dataset:  dataset.Reddit2,
		Model:    model.SAGE,
		Platform: platform,
		Space: dse.Space{
			BatchSizes:  []int{512, 1024, 2048},
			FanoutSets:  [][]int{{5, 5}, {10, 5}, {25, 10}},
			CacheRatios: []float64{0, 0.15, 0.3, 0.45},
			BiasRates:   []float64{0, 0.9},
			Hiddens:     []int{64},
		},
		CalibSamples: calibSamples(f),
		Epochs:       2,
		Seed:         31,
	})
	if err != nil {
		return nil, err
	}
	g, err := nav.Explore()
	if err != nil {
		return nil, err
	}
	mark := func(cfg backend.Config, tag string) {
		// Find the grid point matching the guideline's key knobs.
		best, bestD := -1, 1e18
		for i, p := range res.Points {
			d := 0.0
			if p.Cfg.BatchSize != cfg.BatchSize {
				d += 1
			}
			if p.Cfg.CacheRatio != cfg.CacheRatio {
				d += 1
			}
			if p.Cfg.BiasRate != cfg.BiasRate {
				d += 0.5
			}
			if len(p.Cfg.Fanouts) > 0 && len(cfg.Fanouts) > 0 && p.Cfg.Fanouts[0] != cfg.Fanouts[0] {
				d += 0.5
			}
			if d < bestD {
				bestD, best = d, i
			}
		}
		if best >= 0 {
			res.Points[best].Picked = tag
			if res.Points[best].OnFront {
				res.GuidelineHits++
			}
		}
	}
	mark(g.PerPriority[dse.Balance].Cfg, "balance")
	mark(g.PerPriority[dse.TimeMemory].Cfg, "extreme")
	mark(g.PerPriority[dse.MemoryAccuracy].Cfg, "extreme")

	fmt.Fprintf(w, "%-44s %9s %9s %7s %7s %9s\n", "config", "T(s)", "Γ(GB)", "acc", "front", "picked")
	for _, p := range res.Points {
		front := ""
		if p.OnFront {
			front = "*"
		}
		fmt.Fprintf(w, "%-44s %9.2f %9.2f %6.1f%% %7s %9s\n",
			p.Cfg.Label(), p.TimeSec, p.MemoryGB, 100*p.Accuracy, front, p.Picked)
	}
	fmt.Fprintf(w, "-> panel (a) front: %d points; panel (b) front: %d points; guideline hits on front: %d/3\n",
		len(res.FrontTM), len(res.FrontMA), res.GuidelineHits)
	return res, nil
}
