// Package infer is the shared inference engine: the forward/eval path
// carved out of backend.RunWith's train loop so training and serving
// drive the same sample→gather→forward stages, kernels and workspace
// arena. An Engine owns a loaded model, a sampler, an optional
// cache.FeatureSource (the feature plane serving requests gather
// through) and the model's tensor.Workspace, and exposes two entry
// points over one internal pipeline run:
//
//   - Accuracy — the evaluation loop RunWith's per-epoch validation
//     runs on, pinned bitwise-identical to the pre-extraction
//     evaluateWith;
//   - Predict — per-request class inference for a handful of target
//     vertices, the serving path behind internal/serve and cmd/gnnserve.
//
// Determinism: every batch draws from sample.BatchRNG(Seed, 0, index),
// so a call's outputs are a pure function of (engine seed, target list,
// batch size) — independent of worker count and of whatever ran before
// it on this engine.
//
// Concurrency: the sampler's scratch, the feature plane's single-writer
// contract and the model workspace all assume one run at a time, so an
// Engine serializes Predict/Accuracy calls behind an internal mutex.
// Concurrent callers coalesce better through a Coalescer (coalesce.go),
// which batches them into one Predict per flush. Every call runs the
// pipeline inline, on the caller's goroutine. The same mutex guards
// Predict's resident gather buffer: Predict gathers into it instead of
// allocating a feature matrix per call, which is most of what a small
// Predict would otherwise allocate. Accuracy keeps nothing: its batches
// are BatchSize wide, and a training run would hold that matrix between
// epochs for no gain.
package infer

import (
	"context"
	"fmt"
	"sync"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/model"
	"gnnavigator/internal/nn"
	"gnnavigator/internal/pipeline"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/tensor"
)

// defaultBatchSize chunks evaluation/prediction target lists — the
// historical Evaluate batch size, kept so extraction stays bitwise.
const defaultBatchSize = 512

// Config wires an Engine.
type Config struct {
	// Graph is the graph targets are sampled against.
	Graph *graph.Graph
	// Model is the loaded (trained) model; the engine attaches a fresh
	// workspace arena when the model has none.
	Model *model.Model
	// Sampler draws each batch's neighborhood; nil selects
	// EvalSampler(Model layers), the deterministic fanout-15 node-wise
	// sampler evaluation has always used.
	Sampler sample.Sampler
	// Source is the feature plane rows are gathered through, as
	// cache.NewSource builds it: gnnserve passes its plane, cached or
	// not, at -precision. nil gathers straight from the host at float32
	// with no transfer accounting (the evaluation default; output equals
	// any float32 plane's).
	Source cache.FeatureSource
	// Seed roots the per-batch RNG derivation.
	Seed int64
	// BatchSize chunks the target list (default 512).
	BatchSize int
}

// Stats aggregates one call's pipeline volumes — the serving analogue
// of the per-batch sim.BatchVolumes accounting.
type Stats struct {
	// Batches is how many pipeline batches the call ran.
	Batches int
	// SampledVertices and SampledEdges total the minibatch sizes.
	SampledVertices int
	SampledEdges    int
	// Miss, CacheOps and TransferBytes total the feature plane's batch
	// outcomes (zero when the engine gathers directly from the graph).
	Miss          int
	CacheOps      int
	TransferBytes int64
}

func (s *Stats) add(b *pipeline.Batch) {
	s.Batches++
	s.SampledVertices += b.MB.NumVertices
	s.SampledEdges += b.MB.NumEdges
	s.Miss += b.Miss
	s.CacheOps += b.CacheOps
	s.TransferBytes += b.TransferBytes
}

// Prediction is Predict's result.
type Prediction struct {
	// Classes holds the argmax class per requested target, aligned with
	// the call's target order (duplicates included).
	Classes []int32
	// Logits holds the raw output row per requested target, same
	// alignment. The matrix is owned by the caller.
	Logits *tensor.Dense
	// Stats are the call's pipeline volumes.
	Stats Stats
}

// Engine drives the shared forward path. Safe for concurrent use; calls
// serialize.
type Engine struct {
	cfg Config
	mu  sync.Mutex
	// scratch is Predict's inline gather buffer, kept across calls;
	// guarded by mu.
	scratch pipeline.Scratch
}

// New validates cfg, applies defaults, and attaches a workspace arena
// to the model if it has none.
func New(cfg Config) (*Engine, error) {
	if cfg.Graph == nil || cfg.Model == nil {
		return nil, fmt.Errorf("infer: need a graph and a model")
	}
	if cfg.Model.Cfg().InDim != cfg.Graph.FeatDim {
		return nil, fmt.Errorf("infer: model input width %d != graph feature width %d",
			cfg.Model.Cfg().InDim, cfg.Graph.FeatDim)
	}
	if cfg.Sampler == nil {
		cfg.Sampler = EvalSampler(cfg.Model.Cfg().Layers)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = defaultBatchSize
	}
	if cfg.Model.Workspace() == nil {
		cfg.Model.SetWorkspace(tensor.NewWorkspace())
	}
	return &Engine{cfg: cfg}, nil
}

// EvalSampler builds the deterministic node-wise sampler evaluation
// uses: generous fanout 15 per layer. Holding one instance across calls
// (as an Engine does) keeps its frontier tables and pick scratch warm.
func EvalSampler(layers int) *sample.NodeWise {
	fanouts := make([]int, layers)
	for i := range fanouts {
		fanouts[i] = 15
	}
	return &sample.NodeWise{Fanouts: fanouts}
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *graph.Graph { return e.cfg.Graph }

// Model returns the engine's model.
func (e *Engine) Model() *model.Model { return e.cfg.Model }

// Source returns the engine's feature plane (nil when gathering
// directly from the graph).
func (e *Engine) Source() cache.FeatureSource { return e.cfg.Source }

// run is the one pipeline loop both entry points share: sample → gather
// (through the feature plane when one is configured) → forward, with
// the workspace recycled after each batch's visit, inline on the
// caller's goroutine. Batches arrive in strictly increasing index order.
// scratch, when non-nil, is the gather buffer the run fills instead of a
// fresh one; it must be guarded by e.mu.
func (e *Engine) run(ctx context.Context, targets []int32, scratch *pipeline.Scratch, visit func(b *pipeline.Batch, logits *tensor.Dense) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	ws := e.cfg.Model.Workspace()
	return pipeline.Run(pipeline.Config{
		Graph:     e.cfg.Graph,
		Sampler:   e.cfg.Sampler,
		Source:    e.cfg.Source,
		Seed:      e.cfg.Seed,
		Epochs:    1,
		BatchSize: e.cfg.BatchSize,
		Targets:   targets,
		Gather:    true,
		Scratch:   scratch,
		Ctx:       ctx,
	}, func(b *pipeline.Batch) error {
		logits, err := e.cfg.Model.Forward(b.MB, b.Feats, false)
		if err != nil {
			return err
		}
		if err := visit(b, logits); err != nil {
			return err
		}
		ws.ReleaseAll()
		return nil
	}, nil)
}

// Accuracy measures the model's accuracy over idx (limited to the first
// `limit` vertices when limit > 0) — the evaluation loop formerly
// inlined in backend. The arithmetic is kept exactly as it was
// (per-batch nn.Accuracy folded through the same int truncation), so
// results are bitwise-identical to the pre-extraction evaluateWith.
func (e *Engine) Accuracy(ctx context.Context, idx []int32, limit int) (float64, error) {
	if len(idx) == 0 {
		return 0, fmt.Errorf("infer: empty evaluation set")
	}
	if limit > 0 && limit < len(idx) {
		idx = idx[:limit]
	}
	var correct, total int
	err := e.run(ctx, idx, nil, func(b *pipeline.Batch, logits *tensor.Dense) error {
		correct += int(nn.Accuracy(logits, b.Labels) * float64(len(b.Labels)))
		total += len(b.Labels)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(correct) / float64(total), nil
}

// Predict runs inference for the given target vertices and returns one
// class (and logits row) per target, in target order. Duplicate targets
// are deduplicated before sampling — the sampler collapses repeated
// seeds, so feeding them through would misalign rows — and every
// duplicate receives the unique vertex's result.
func (e *Engine) Predict(ctx context.Context, targets []int32) (*Prediction, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("infer: empty target set")
	}
	n := e.cfg.Graph.NumVertices()
	for _, v := range targets {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("infer: target vertex %d out of range [0,%d)", v, n)
		}
	}
	// Dedup preserving first-seen order; pos maps vertex → unique row.
	pos := make(map[int32]int32, len(targets))
	uniq := make([]int32, 0, len(targets))
	for _, v := range targets {
		if _, ok := pos[v]; !ok {
			pos[v] = int32(len(uniq))
			uniq = append(uniq, v)
		}
	}
	outDim := e.cfg.Model.Cfg().OutDim
	logits := tensor.New(len(uniq), outDim)
	classes := make([]int32, len(uniq))
	p := &Prediction{}
	row := 0
	err := e.run(ctx, uniq, &e.scratch, func(b *pipeline.Batch, lg *tensor.Dense) error {
		// uniq has no repeats and evaluation order is unshuffled, so each
		// batch's targets are exactly its chunk of uniq, in order: rows
		// append sequentially.
		for i, c := range lg.ArgmaxRows() {
			classes[row] = int32(c)
			copy(logits.Row(row), lg.Row(i))
			row++
		}
		p.Stats.add(b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if row != len(uniq) {
		return nil, fmt.Errorf("infer: predicted %d of %d targets", row, len(uniq))
	}
	if len(uniq) == len(targets) {
		p.Classes, p.Logits = classes, logits
		return p, nil
	}
	// Scatter unique results back over the duplicates.
	p.Classes = make([]int32, len(targets))
	p.Logits = tensor.New(len(targets), outDim)
	for i, v := range targets {
		u := pos[v]
		p.Classes[i] = classes[u]
		copy(p.Logits.Row(i), logits.Row(int(u)))
	}
	return p, nil
}
