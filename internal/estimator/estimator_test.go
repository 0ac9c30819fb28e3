package estimator

import (
	"math"
	"strings"
	"testing"
	"time"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/model"
	"gnnavigator/internal/regress"
	"gnnavigator/internal/sample"
)

// TestUnresolvableNamesReturn: a dataset or platform name that does not
// resolve can never yield a valid probe, so ProbeConfigs returns nil and
// CollectCached fails naming it, instead of drawing forever. The
// watchdog turns a spinning draw loop into a failure.
func TestUnresolvableNamesReturn(t *testing.T) {
	for _, tc := range []struct{ ds, platform, bad string }{
		{dataset.OgbnArxiv, "bogus", "bogus"},
		{"no-such-dataset", "rtx4090", "no-such-dataset"},
	} {
		var cfgs []backend.Config
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			cfgs = ProbeConfigs(tc.ds, model.SAGE, tc.platform, 3, 1)
			_, err = CollectCached(tc.ds, model.SAGE, tc.platform, 3, 1, false)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s on %s: no return within 5s", tc.ds, tc.platform)
		}
		if cfgs != nil {
			t.Errorf("%s on %s: ProbeConfigs drew %d configs, want nil", tc.ds, tc.platform, len(cfgs))
		}
		if err == nil || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("%s on %s: CollectCached error %v, want one naming %q", tc.ds, tc.platform, err, tc.bad)
		}
	}
}

func TestProfileDataset(t *testing.T) {
	d := dataset.MustLoad(dataset.Reddit2)
	st := ProfileDataset(d)
	if st.LogVertices <= 0 || st.AvgDegree <= 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
	if st.Homophily < 0.4 {
		t.Errorf("homophily = %v, want the planted structure (>0.4)", st.Homophily)
	}
	if st.Gini < 0.1 {
		t.Errorf("gini = %v, want skewed", st.Gini)
	}
}

func TestProbeConfigsValid(t *testing.T) {
	cfgs := ProbeConfigs(dataset.OgbnArxiv, model.SAGE, "rtx4090", 30, 5)
	if len(cfgs) != 30 {
		t.Fatalf("got %d configs, want 30", len(cfgs))
	}
	var saint, cached, biased int
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("invalid probe config %s: %v", c.Label(), err)
		}
		if c.Sampler == backend.SamplerSAINT {
			saint++
		}
		if c.CacheRatio > 0 {
			cached++
		}
		if c.BiasRate > 0 {
			biased++
		}
	}
	if saint == 0 || cached == 0 {
		t.Errorf("probe grid lacks diversity: saint=%d cached=%d biased=%d", saint, cached, biased)
	}
}

// trainedEstimator collects a small calibration set once per test binary.
func trainedEstimator(t *testing.T) (*Estimator, []Record) {
	t.Helper()
	recs, err := CollectCached(dataset.OgbnArxiv, model.SAGE, "rtx4090", 24, 7, true)
	if err != nil {
		t.Fatalf("CollectCached: %v", err)
	}
	e, err := Train(recs)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return e, recs
}

func TestTrainRequiresRecords(t *testing.T) {
	if _, err := Train(nil); err == nil {
		t.Error("Train on empty records accepted")
	}
}

func TestPredictInSaneRanges(t *testing.T) {
	e, recs := trainedEstimator(t)
	for _, r := range recs[:5] {
		p, err := e.Predict(r.Cfg)
		if err != nil {
			t.Fatalf("Predict: %v", err)
		}
		if p.TimeSec <= 0 || p.MemoryGB <= 0 {
			t.Errorf("non-positive prediction: %+v", p)
		}
		if p.Accuracy < 0 || p.Accuracy > 1 {
			t.Errorf("accuracy %v out of [0,1]", p.Accuracy)
		}
		if p.BatchSize < float64(r.Cfg.BatchSize) {
			t.Errorf("predicted |Vi| %v below batch size %d", p.BatchSize, r.Cfg.BatchSize)
		}
		if p.HitRate < 0 || p.HitRate > 1 {
			t.Errorf("hit rate %v out of [0,1]", p.HitRate)
		}
	}
}

func TestSelfValidationStrong(t *testing.T) {
	// In-sample validation must be strong — this bounds implementation
	// error, not generalization.
	e, recs := trainedEstimator(t)
	v, err := Validate(e, recs)
	if err != nil {
		t.Fatal(err)
	}
	if v.R2Time < 0.6 {
		t.Errorf("in-sample R2(T) = %.3f, want >= 0.6", v.R2Time)
	}
	if v.R2Memory < 0.8 {
		t.Errorf("in-sample R2(Γ) = %.3f, want >= 0.8", v.R2Memory)
	}
	if v.R2Batch < 0.8 {
		t.Errorf("in-sample R2(|Vi|) = %.3f, want >= 0.8", v.R2Batch)
	}
	if math.IsNaN(v.MSEAcc) || v.MSEAcc > 0.05 {
		t.Errorf("in-sample MSE(Acc) = %v, want <= 0.05", v.MSEAcc)
	}
}

// TestCrossDatasetGeneralization is the Table-2 scenario in miniature:
// train on one dataset's probes, predict batch sizes on another.
func TestCrossDatasetGeneralization(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-dataset calibration is slow")
	}
	trainRecs, err := CollectCached(dataset.OgbnArxiv, model.SAGE, "rtx4090", 24, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Train(trainRecs)
	if err != nil {
		t.Fatal(err)
	}
	testRecs, err := CollectCached(dataset.Reddit2, model.SAGE, "rtx4090", 12, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	var pred, truth []float64
	for _, r := range testRecs {
		pred = append(pred, e.PredictVertices(r.Cfg, r.Stats))
		truth = append(truth, r.Perf.MeanBatchSize)
	}
	if r2 := regress.R2(pred, truth); r2 < 0.3 {
		t.Errorf("cross-dataset R2(|Vi|) = %.3f, want >= 0.3", r2)
	}
}

// TestGrayBoxBeatsBlackBox reproduces Fig. 5's claim on held-out configs.
func TestGrayBoxBeatsBlackBox(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow")
	}
	recs, err := CollectCached(dataset.OgbnArxiv, model.SAGE, "rtx4090", 24, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	train, test := recs[:16], recs[16:]
	e, err := Train(train)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := TrainBlackBoxBatchSize(train)
	if err != nil {
		t.Fatal(err)
	}
	var gb, bbp, truth []float64
	for _, r := range test {
		gb = append(gb, e.PredictVertices(r.Cfg, r.Stats))
		bbp = append(bbp, bb.Predict(r.Cfg))
		truth = append(truth, r.Perf.MeanBatchSize)
	}
	gbErr := regress.MSE(gb, truth)
	bbErr := regress.MSE(bbp, truth)
	if gbErr >= bbErr {
		t.Errorf("gray-box MSE %.1f >= black-box MSE %.1f on held-out configs", gbErr, bbErr)
	}
}

func TestPredictRejectsInvalidConfig(t *testing.T) {
	e, _ := trainedEstimator(t)
	bad := backend.Config{Dataset: "nope"}
	if _, err := e.Predict(bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestPredictionRespondsToCacheRatio(t *testing.T) {
	e, recs := trainedEstimator(t)
	base := recs[0].Cfg
	base.CacheRatio = 0
	base.CachePolicy = cache.None
	base.BiasRate = 0
	noCache, err := e.Predict(base)
	if err != nil {
		t.Fatal(err)
	}
	big := base
	big.CacheRatio = 0.5
	big.CachePolicy = cache.Static
	withCache, err := e.Predict(big)
	if err != nil {
		t.Fatal(err)
	}
	if withCache.MemoryGB <= noCache.MemoryGB {
		t.Errorf("cache memory not reflected: %.3f vs %.3f GB", withCache.MemoryGB, noCache.MemoryGB)
	}
}

func TestAnalyticBoundShapes(t *testing.T) {
	st := GraphStats{AvgDegree: 20, LogVertices: math.Log(8000)}
	sage := backend.Config{Sampler: backend.SamplerSAGE, BatchSize: 100, Fanouts: []int{10, 5}}
	if got := analyticBound(sage, st); got != 100*11*6 {
		t.Errorf("sage bound = %v, want 6600", got)
	}
	saint := backend.Config{Sampler: backend.SamplerSAINT, BatchSize: 100, WalkLength: 4}
	if got := analyticBound(saint, st); got != 500 {
		t.Errorf("saint bound = %v, want 500", got)
	}
	fg := backend.Config{Sampler: backend.SamplerFastGCN, BatchSize: 100, Fanouts: []int{10, 5}}
	if got := analyticBound(fg, st); got != 100+500+250 {
		t.Errorf("fastgcn bound = %v, want 850", got)
	}
	// Fanouts above the average degree are capped.
	big := backend.Config{Sampler: backend.SamplerSAGE, BatchSize: 100, Fanouts: []int{1000}}
	if got := analyticBound(big, st); got > 100*22 {
		t.Errorf("capped bound = %v, want <= 2200", got)
	}
}

// fakeBlock allocates a structurally valid block with the requested
// counts (contents are irrelevant; only sizes feed the FLOPs formulas).
func fakeBlock(src, dst, edges int) sample.Block {
	if dst < 1 {
		dst = 1
	}
	if src < dst {
		src = dst
	}
	if edges < 0 {
		edges = 0
	}
	off := make([]int32, dst+1)
	for i := 1; i <= dst; i++ {
		off[i] = int32(edges * i / dst)
	}
	return sample.Block{
		SrcNodes: make([]int32, src),
		DstCount: dst,
		Offsets:  off,
		Indices:  make([]int32, edges),
	}
}

func TestFakeBlockShapes(t *testing.T) {
	b := fakeBlock(10, 4, 9)
	if len(b.SrcNodes) != 10 || b.DstCount != 4 || len(b.Indices) != 9 {
		t.Errorf("fakeBlock shape wrong: %+v", b)
	}
	if int(b.Offsets[4]) != 9 {
		t.Errorf("offsets end = %d, want 9", b.Offsets[4])
	}
	// Degenerate inputs clamp.
	b = fakeBlock(0, 0, -5)
	if b.DstCount != 1 || len(b.Indices) != 0 {
		t.Errorf("degenerate fakeBlock: %+v", b)
	}
}

// TestAnalyticFLOPsMatchesBuiltModel pins the closed form bit for bit to
// Model.FLOPs of a built model over fakeBlock mini-batches of the same
// interpolated widths, the way Predict priced FLOPs before it stopped
// building a model per call.
func TestAnalyticFLOPsMatchesBuiltModel(t *testing.T) {
	ds := dataset.MustLoad(dataset.OgbnArxiv)
	volumes := []struct{ vi, edges float64 }{{3071.6, 20417.9}, {512, 0}, {97.2, 801.5}, {40000.3, 1.3e6}}
	for _, kind := range []model.Kind{model.GCN, model.SAGE, model.GAT} {
		for layers := 1; layers <= 3; layers++ {
			for _, heads := range []int{1, 2, 4} {
				cfg := backend.Config{Model: kind, Layers: layers, Hidden: 32, Heads: heads, BatchSize: 512}
				mdl, err := model.New(model.Config{
					Kind: kind, InDim: ds.Graph.FeatDim, Hidden: cfg.Hidden,
					OutDim: ds.Graph.NumClasses, Layers: layers, Heads: heads, Seed: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				pr := backend.NewPricing(cfg, ds)
				for _, v := range volumes {
					got, err := analyticFLOPs(&pr, cfg, v.vi, v.edges)
					if err != nil {
						t.Fatal(err)
					}
					b0, vi := float64(cfg.BatchSize), math.Max(v.vi, float64(cfg.BatchSize))
					mb := &sample.MiniBatch{Blocks: make([]sample.Block, layers)}
					for l := range mb.Blocks {
						sl := vi * math.Pow(b0/vi, float64(l)/float64(layers))
						sl1 := vi * math.Pow(b0/vi, float64(l+1)/float64(layers))
						mb.Blocks[l] = fakeBlock(int(sl), int(sl1), int(v.edges*sl1/vi))
					}
					mb.InputNodes = mb.Blocks[0].SrcNodes
					if want := mdl.FLOPs(mb); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s L=%d heads=%d vi=%v: closed form %v, built model %v", kind, layers, heads, v.vi, got, want)
					}
				}
			}
		}
	}
}
