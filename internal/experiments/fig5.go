package experiments

import (
	"fmt"
	"io"

	"gnnavigator/internal/dataset"
	"gnnavigator/internal/estimator"
	"gnnavigator/internal/model"
	"gnnavigator/internal/regress"
)

// Fig5Result compares gray-box and black-box mini-batch size prediction on
// held-out configurations (Fig. 5's scatter, summarized numerically).
type Fig5Result struct {
	GrayR2, BlackR2   float64
	GrayMSE, BlackMSE float64
	// Points carries (measured, grayPred, blackPred) triples for plotting.
	Points [][3]float64
}

// RunFig5 trains both estimators on Ogbn-arxiv probe configs and evaluates
// mini-batch size prediction on held-out Reddit2 probes — a strictly
// harder (cross-dataset) version of the paper's setup.
func RunFig5(w io.Writer, f Fidelity) (*Fig5Result, error) {
	n := calibSamples(f)
	trainRecs, err := estimator.CollectCached(dataset.OgbnArxiv, model.SAGE, platform, n, 7, true)
	if err != nil {
		return nil, err
	}
	testRecs, err := estimator.CollectCached(dataset.Reddit2, model.SAGE, platform, n, 8, false)
	if err != nil {
		return nil, err
	}
	gray, err := estimator.Train(trainRecs)
	if err != nil {
		return nil, err
	}
	black, err := estimator.TrainBlackBoxBatchSize(trainRecs)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{}
	var gp, bp, truth []float64
	fmt.Fprintln(w, "# Fig 5: mini-batch size prediction — gray-box vs black-box (train: AR, test: RD2)")
	fmt.Fprintf(w, "%12s %12s %12s\n", "measured", "gray-box", "black-box")
	for _, r := range testRecs {
		g := gray.PredictVertices(r.Cfg, r.Stats)
		b := black.Predict(r.Cfg)
		m := r.Perf.MeanBatchSize
		gp = append(gp, g)
		bp = append(bp, b)
		truth = append(truth, m)
		res.Points = append(res.Points, [3]float64{m, g, b})
		fmt.Fprintf(w, "%12.0f %12.0f %12.0f\n", m, g, b)
	}
	res.GrayR2 = regress.R2(gp, truth)
	res.BlackR2 = regress.R2(bp, truth)
	res.GrayMSE = regress.MSE(gp, truth)
	res.BlackMSE = regress.MSE(bp, truth)
	fmt.Fprintf(w, "-> gray-box R2=%.3f MSE=%.0f | black-box R2=%.3f MSE=%.0f\n",
		res.GrayR2, res.GrayMSE, res.BlackR2, res.BlackMSE)
	return res, nil
}
