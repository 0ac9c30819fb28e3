package experiments

import (
	"fmt"
	"io"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/model"
)

// Fig1aPoint is one cache-ratio setting of PaGraph's speed/memory
// trade-off (Fig. 1a: epoch time falls as cache memory rises).
type Fig1aPoint struct {
	CacheRatio float64
	MemoryMB   float64
	EpochSec   float64
	HitRate    float64
	// TransferMB is the measured host→device feature traffic of the
	// scaled run (feature-plane accounting), the quantity Eq. 6 prices.
	TransferMB float64
}

// RunFig1a sweeps the PaGraph template's cache ratio on Reddit2+SAGE and
// reports the trade-off curve.
func RunFig1a(w io.Writer, f Fidelity) ([]Fig1aPoint, error) {
	ratios := []float64{0, 0.1, 0.2, 0.3, 0.45, 0.6}
	if f == Quick {
		ratios = []float64{0, 0.15, 0.3, 0.6}
	}
	fmt.Fprintln(w, "# Fig 1a: PaGraph speedup vs memory trade-off (Reddit2+SAGE)")
	fmt.Fprintf(w, "%10s %12s %12s %8s %12s\n", "cacheRatio", "memory(MB)", "epoch(s)", "hit", "xfer(MB)")
	var out []Fig1aPoint
	for _, r := range ratios {
		cfg, err := backend.FromTemplate(backend.TemplatePaFull, dataset.Reddit2, model.SAGE, platform)
		if err != nil {
			return nil, err
		}
		cfg.CacheRatio = r
		if r == 0 {
			cfg.CachePolicy = cache.None
		}
		cfg.Epochs = 1
		perf, err := backend.RunWith(cfg, backend.Options{SkipTraining: true})
		if err != nil {
			return nil, err
		}
		p := Fig1aPoint{
			CacheRatio: r,
			MemoryMB:   perf.MemoryGB * 1000,
			EpochSec:   perf.TimeSec,
			HitRate:    perf.HitRate,
			TransferMB: float64(perf.TransferredBytes) / 1e6,
		}
		out = append(out, p)
		fmt.Fprintf(w, "%10.2f %12.1f %12.3f %8.2f %12.1f\n", p.CacheRatio, p.MemoryMB, p.EpochSec, p.HitRate, p.TransferMB)
	}
	if len(out) >= 2 {
		first, last := out[0], out[len(out)-1]
		fmt.Fprintf(w, "-> %s speedup for %s memory\n",
			speedup(first.EpochSec, last.EpochSec), memDelta(first.MemoryMB, last.MemoryMB))
	}
	return out, nil
}

// Fig1bPoint is one epoch of the PaGraph vs 2PGraph accuracy/time
// comparison (Fig. 1b: 2PGraph trains faster but converges lower).
type Fig1bPoint struct {
	Epoch       int
	PaGraphAcc  float64
	TwoPAcc     float64
	PaGraphTime float64
	TwoPTime    float64
}

// RunFig1b trains PaGraph and 2PGraph templates on Reddit2+SAGE and
// reports per-epoch accuracy plus the speedup/accuracy-drop summary.
func RunFig1b(w io.Writer, f Fidelity) ([]Fig1bPoint, error) {
	ep := 4
	if f == Quick {
		ep = 3
	}
	run := func(tpl backend.Template) (*backend.Perf, error) {
		cfg, err := backend.FromTemplate(tpl, dataset.Reddit2, model.SAGE, platform)
		if err != nil {
			return nil, err
		}
		cfg.Epochs = ep
		return backend.RunWith(cfg, backend.Options{})
	}
	pa, err := run(backend.TemplatePaFull)
	if err != nil {
		return nil, err
	}
	tp, err := run(backend.Template2PGraph)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "# Fig 1b: PaGraph vs 2PGraph — epoch time and accuracy trade-off (Reddit2+SAGE)")
	fmt.Fprintf(w, "%6s %12s %12s\n", "epoch", "PaGraph acc", "2PGraph acc")
	var out []Fig1bPoint
	for i := 0; i < ep; i++ {
		p := Fig1bPoint{
			Epoch:       i + 1,
			PaGraphAcc:  pa.AccuracyHistory[i],
			TwoPAcc:     tp.AccuracyHistory[i],
			PaGraphTime: pa.EpochTimes[i],
			TwoPTime:    tp.EpochTimes[i],
		}
		out = append(out, p)
		fmt.Fprintf(w, "%6d %11.2f%% %11.2f%%\n", p.Epoch, 100*p.PaGraphAcc, 100*p.TwoPAcc)
	}
	fmt.Fprintf(w, "-> 2PGraph epoch time %.2fs vs PaGraph %.2fs (%s speedup), final acc %.2f%% vs %.2f%% (%.1f pt drop)\n",
		tp.TimeSec, pa.TimeSec, speedup(pa.TimeSec, tp.TimeSec),
		100*tp.Accuracy, 100*pa.Accuracy, 100*(pa.Accuracy-tp.Accuracy))
	return out, nil
}
