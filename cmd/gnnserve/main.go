// Command gnnserve serves a trained GNN model over HTTP: it loads a
// GNAVMDL1 artifact written by `gnnavigator -train -save-model` (or
// backend.Options.SaveModelPath), wires it to the shared inference
// engine through one feature plane (an optional device cache, rows at
// -precision either way), and answers
//
//	POST /predict {"vertices":[...]} → {"classes":[...]}
//	GET  /stats                      → latency/throughput/cache counters
//	GET  /healthz                    → liveness + model identity
//
// Concurrent requests are coalesced by group commit: an idle engine
// answers a request at once, and whatever arrives while it is busy rides
// the next flush together (up to -max-batch vertices), so the engine
// amortizes its fixed per-batch cost under load without adding latency
// when there is none.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/infer"
	"gnnavigator/internal/model"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/serve"
	"gnnavigator/internal/tensor"
)

func main() {
	var (
		modelPath = flag.String("model", "", "trained model file to serve (from gnnavigator -save-model); required")
		dsName    = flag.String("dataset", dataset.OgbnArxiv, "graph the model serves predictions for")
		addr      = flag.String("addr", ":8080", "listen address")
		policy    = flag.String("cache-policy", "lru", "feature cache policy (none, static, fifo, lru)")
		ratio     = flag.Float64("cache-ratio", 0.1, "feature cache capacity as a fraction of the graph's float32 feature bytes")
		precision = flag.String("precision", "float32", "feature precision: rows are stored in the cache and sent over the host link at this width (float32, float16, int8)")
		maxBatch  = flag.Int("max-batch", 256, "coalescer: most vertices one flush carries")
		reqLimit  = flag.Int("request-limit", 1024, "maximum vertices in a single /predict request")
		batchSize = flag.Int("batch-size", 512, "engine minibatch size")
		fanout    = flag.Int("fanout", 15, "neighbors sampled per layer (0 = whole neighborhood)")
		seed      = flag.Int64("seed", 1, "sampling seed (predictions are a pure function of seed+targets)")
		procs     = flag.Int("procs", 0, "tensor kernel workers (0 = GOMAXPROCS, 1 = serial; negative is an error)")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("gnnserve: ")
	if err := checkFlags(*modelPath, *procs); err != nil {
		fmt.Fprintln(os.Stderr, "gnnserve:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *procs > 0 {
		tensor.SetParallelism(*procs)
	}

	mdl, err := model.Load(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	d, err := dataset.Load(*dsName)
	if err != nil {
		log.Fatal(err)
	}
	g := d.Graph
	if mdl.Cfg().InDim != g.FeatDim {
		log.Fatalf("model %s reads %d-dim features, dataset %s has %d-dim", *modelPath, mdl.Cfg().InDim, *dsName, g.FeatDim)
	}
	if mdl.Cfg().OutDim != g.NumClasses {
		log.Fatalf("model %s emits %d classes, dataset %s has %d", *modelPath, mdl.Cfg().OutDim, *dsName, g.NumClasses)
	}

	src, desc, err := buildSource(g, cache.Policy(*policy), *ratio, cache.Precision(*precision))
	if err != nil {
		log.Fatal(err)
	}
	fanouts := make([]int, mdl.Cfg().Layers)
	for i := range fanouts {
		fanouts[i] = *fanout
	}
	eng, err := infer.New(infer.Config{
		Graph:     g,
		Model:     mdl,
		Sampler:   &sample.NodeWise{Fanouts: fanouts},
		Source:    src,
		Seed:      *seed,
		BatchSize: *batchSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		Engine:      eng,
		MaxBatch:    *maxBatch,
		MaxVertices: *reqLimit,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Bodies are at most 1 MiB and replies a few KiB, so these only cut
	// off peers that stall; a flush queued behind a busy engine is well
	// inside the write budget.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("serving %s model on %s (%d vertices, %d classes, %s) at %s",
		mdl.Cfg().Kind, *dsName, g.NumVertices(), g.NumClasses, desc, *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	log.Print("stopped")
}

// buildSource wires the serving feature plane through cache.NewSource.
// The capacity follows the backend's byte-budget convention: ratio of
// the graph's float32 feature bytes, so compact precisions hold
// proportionally more rows. Policy none, or a ratio that rounds to zero
// rows, serves every row straight over the host link at prec. Freq and
// opt are rejected: both read their residency from an epoch plan, and
// serving has none to mine.
func buildSource(g *graph.Graph, policy cache.Policy, ratio float64, prec cache.Precision) (cache.FeatureSource, string, error) {
	switch policy {
	case cache.None, cache.Static, cache.FIFO, cache.LRU:
	case cache.Freq, cache.Opt:
		return nil, "", fmt.Errorf("cache policy %q needs an epoch plan to mine, and serving has none (use none, static, fifo or lru)", policy)
	default:
		return nil, "", fmt.Errorf("unknown cache policy %q (use none, static, fifo or lru)", policy)
	}
	capVertices := int(prec.EffectiveCacheRows(ratio, float64(g.NumVertices()), g.FeatDim))
	src, err := cache.NewSource(cache.Config{Policy: policy, Capacity: capVertices, Precision: prec}, g)
	if err != nil {
		return nil, "", err
	}
	if policy == cache.None || capVertices == 0 {
		return src, fmt.Sprintf("no cache, %s transfers", prec.OrDefault()), nil
	}
	return src, fmt.Sprintf("%s cache, %d rows, %s", policy, capVertices, prec.OrDefault()), nil
}

// checkFlags rejects the flag values main cannot start with: a missing
// -model and a negative -procs.
func checkFlags(modelPath string, procs int) error {
	if modelPath == "" {
		return errors.New("-model is required")
	}
	if procs < 0 {
		return fmt.Errorf("-procs %d: a worker count cannot be negative (0 = GOMAXPROCS, 1 = serial)", procs)
	}
	return nil
}
