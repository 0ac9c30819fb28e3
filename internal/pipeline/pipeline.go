// Package pipeline is the minibatch engine behind backend.RunWith
// and infer.Engine: the epoch loop, extracted from the trainer and
// reorganized as a bounded producer/consumer pipeline so host-side work
// (sampling, cache maintenance, feature gather) for batch i+1 overlaps
// device-side work (forward/backward/optimizer) for batch i — the
// executable form of Eq. 4's max(host, device) overlap, applied to the
// reproduction's own wall clock.
//
// There is one epoch loop (produce: epoch × batch, a cancellation check,
// sample, emit) and one delivery step (deliver: a cancellation check,
// epochEnd at each epoch boundary, consume). Config.Prefetch only picks
// what sits between them. At depth <= 0 emit prepares the batch into one
// buffer set and delivers it on the caller's goroutine: the inline path,
// zero goroutines. At depth > 0 one producer goroutine runs the same
// loop and prepares each batch — sample, cache lookup/update, gather, in
// batch order — and the consumer stays on the caller's goroutine:
//
//	Producer (sample → lookup/update → gather) ──out──▶ Consumer (train/eval)
//
// out holds at most Prefetch batches, so with one batch being prepared
// and one being consumed the producer runs at most Prefetch+1 batches
// ahead of the consumer. The gathered feature matrices live in a
// recycled ring of exactly Prefetch+2 buffer sets (the generalized double
// buffer: one being filled, up to Prefetch queued, one in use by the
// consumer), so steady-state prefetch allocates nothing.
//
// Determinism contract: every batch draws from an RNG derived from
// (Seed, epoch, batchIndex) — sample.BatchRNG — never from a shared
// stream, so its draws do not depend on pipeline timing; the cache is
// read and mutated by one goroutine, the producer, in batch order, so a
// sampler that reads residency (a cache-aware bias) sees exactly the
// residency the inline loop would; and the consumer receives batches
// strictly in (epoch, index) order. Together these make the engine's
// output bitwise-identical at every prefetch depth; the inline path is
// the reference.
//
// Scratch contract: the engine invokes Config.Sampler.Sample from exactly
// one goroutine per run (the caller's, or the producer), so samplers may
// keep mutable per-run scratch — the epoch-stamped frontier tables and
// pick buffers of internal/sample — across batches without locking.
// Scratch must never leak into the returned MiniBatch; the returned
// slices stay valid while the producer runs up to Prefetch+1 batches
// ahead.
//
// The engine has no notion of device count: a K-device training run
// drives it with the same feature plane as a single-device run, and its
// consumer counts the batch's halo rows from Batch.MB.
package pipeline

import (
	"context"
	"errors"
	"fmt"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/plan"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/tensor"
)

// maxPrefetch bounds the lookahead depth; deeper queues only add memory,
// not overlap, once the consumer is the bottleneck.
const maxPrefetch = 64

// Batch is one unit of work flowing through the pipeline. By the time the
// consumer sees it, every host-side product is attached: the sampled
// minibatch, the cache outcome, and (when Config.Gather is set) the
// gathered input-feature matrix and target labels. The per-batch counts
// are exactly what sim.BatchVolumes needs, so the consumer can price the
// iteration (sim.EstimateBatch) without re-touching cache or graph state.
type Batch struct {
	// Epoch and Index are the batch's pipeline coordinates; Index counts
	// from 0 within the epoch. The consumer sees batches in strictly
	// increasing (Epoch, Index) order.
	Epoch, Index int
	// Targets is the seed vertex set (a sub-slice of the epoch plan).
	Targets []int32
	// MB is the sampled minibatch.
	MB *sample.MiniBatch
	// Miss is the number of MB.InputNodes absent from the cache (the
	// transfer volume of Eq. 6); 0 when the run has no feature source.
	Miss int
	// CacheOps is the number of replacement operations Update performed
	// admitting the misses (Eq. 5's stale-data volume).
	CacheOps int
	// TransferBytes is the host→device feature traffic this batch caused
	// at the scaled feature width, as accounted by the feature source.
	TransferBytes int64
	// Feats is the gathered input-feature matrix (row i = features of
	// MB.InputNodes[i]); nil unless Config.Gather. It is owned by the
	// pipeline's buffer ring and is valid only until the consumer
	// callback returns.
	Feats *tensor.Dense
	// Labels holds the labels of MB.Targets; nil unless Config.Gather.
	// Same lifetime as Feats.
	Labels []int32

	buf *bufferSet
}

// bufferSet is one slot of the gather ring: the feature matrix and label
// slice a batch carries from its gather to the consumer.
type bufferSet struct {
	feats  *tensor.Dense
	labels []int32
}

// Scratch is a gather buffer that outlives one Run: a caller that issues
// many short inline runs (the inference engine, one per request) holds
// one and passes it as Config.Scratch, so the feature matrix is grown
// once instead of allocated and zeroed per run. The zero value is ready.
// It must not be shared by concurrent runs.
type Scratch struct{ buf bufferSet }

// Config wires one pipeline run.
type Config struct {
	Graph   *graph.Graph
	Sampler sample.Sampler
	// Source is the feature plane the gather step routes rows through:
	// cache lookup/update, transfer accounting and (when Gather is set)
	// the row copies all happen behind it, in batch order. nil disables
	// transfer accounting; Gather then copies rows straight from Graph.
	Source cache.FeatureSource

	// Seed roots the per-batch RNG derivation (sample.BatchRNG).
	Seed int64
	// Epochs is the number of passes over Targets (min 1).
	Epochs int
	// BatchSize is |B_0|; <= 0 means one batch of all targets.
	BatchSize int
	// Targets are the seed vertices; must be non-empty.
	Targets []int32
	// Shuffle re-permutes Targets per epoch (training); false keeps the
	// given order (evaluation).
	Shuffle bool
	// Gather fills Batch.Feats/Batch.Labels in the gather step.
	Gather bool

	// Plan, when set, replaces live sampling with plan replay: each
	// batch's minibatch is decoded from the compiled epoch plan instead of
	// being re-sampled. The determinism contract makes this a pure
	// substitution — replayed batches are bitwise-identical to live
	// sampling at every prefetch depth. The plan must be compatible with
	// (Sampler, Seed, Epochs, BatchSize, Shuffle, Targets); Sampler is
	// then consulted only for its identity, never invoked. The caller
	// must not pair a plan with a sampler that reads residency: a
	// cache-aware bias makes sampling depend on it, which a pre-compiled
	// plan cannot reflect (backend refuses the combination).
	Plan *plan.Plan

	// Prefetch is the lookahead depth: how many prepared batches may
	// wait for the consumer, capped at 64. <= 0 runs the inline path (no
	// goroutines), which is the bitwise reference for every depth.
	Prefetch int

	// Scratch, when non-nil, is the buffer set the inline path (Prefetch
	// <= 0) gathers into instead of a fresh one; Batch.Feats and
	// Batch.Labels then alias it, still valid only until the consumer
	// callback returns. Outputs are identical either way. The async path
	// owns its ring and ignores it.
	Scratch *Scratch

	// Ctx, when non-nil, cancels the run: the producer and the consumer
	// check it between batches, and Run returns ctx.Err() after tearing
	// the producer down.
	// Cancellation is cooperative at batch granularity — a batch already
	// in flight completes, but no further batch is sampled, gathered, or
	// delivered. nil means no cancellation (run to completion).
	Ctx context.Context
}

// ctxErr reports the run context's error, if it has been cancelled.
func (cfg *Config) ctxErr() error {
	if cfg.Ctx == nil {
		return nil
	}
	select {
	case <-cfg.Ctx.Done():
		return cfg.Ctx.Err()
	default:
		return nil
	}
}

func (cfg *Config) validate() error {
	if cfg.Graph == nil || cfg.Sampler == nil {
		return fmt.Errorf("pipeline: need a graph and a sampler")
	}
	if len(cfg.Targets) == 0 {
		return fmt.Errorf("pipeline: no target vertices")
	}
	if cfg.Epochs < 1 {
		return fmt.Errorf("pipeline: epochs %d < 1", cfg.Epochs)
	}
	if cfg.Plan != nil {
		if err := cfg.Plan.CompatibleWith(cfg.Sampler, cfg.Seed, cfg.Epochs, cfg.BatchSize, cfg.Shuffle, cfg.Targets); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	return nil
}

// plan returns epoch e's batch list. With Shuffle the permutation comes
// from the per-epoch stream (independent of every other epoch); without,
// targets are chunked in the given order. sample.EpochPlan is the single
// source of truth here, shared with the plan compiler (internal/plan).
func (cfg *Config) plan(epoch int) [][]int32 {
	return sample.EpochPlan(cfg.Seed, epoch, cfg.Targets, cfg.BatchSize, cfg.Shuffle)
}

// sampleBatch is the sampling step for one batch: live sampling
// through the per-batch RNG, or plan replay when Config.Plan is set.
func (cfg *Config) sampleBatch(epoch, index int, targets []int32) (*Batch, error) {
	if err := faultinject.Fire(faultinject.PipelineSample); err != nil {
		return nil, fmt.Errorf("pipeline: sample batch (%d,%d): %w", epoch, index, err)
	}
	b := &Batch{Epoch: epoch, Index: index, Targets: targets}
	if cfg.Plan != nil {
		b.MB = cfg.Plan.Replay(epoch, index)
		return b, nil
	}
	rng := sample.BatchRNG(cfg.Seed, epoch, index)
	b.MB = cfg.Sampler.Sample(rng, cfg.Graph, targets)
	return b, nil
}

// prepareBatch is the cache+gather step for one batch: route the
// batch's input rows through the feature plane (lookup/update/transfer
// accounting, in batch order), then feature/label gather into the
// batch's buffer set.
func (cfg *Config) prepareBatch(b *Batch, buf *bufferSet) error {
	if err := faultinject.Fire(faultinject.PipelineGather); err != nil {
		return fmt.Errorf("pipeline: gather batch (%d,%d): %w", b.Epoch, b.Index, err)
	}
	if cfg.Gather {
		b.buf = buf
		if cfg.Source != nil {
			var st cache.BatchStats
			buf.feats, st = cfg.Source.GatherInto(buf.feats, b.MB.InputNodes)
			b.Miss, b.CacheOps, b.TransferBytes = st.Miss, st.CacheOps, st.TransferBytes
		} else {
			buf.feats = cache.GatherRowsInto(buf.feats, cfg.Graph, b.MB.InputNodes)
		}
		buf.labels = tensor.Grow(buf.labels, len(b.MB.Targets))
		for i, v := range b.MB.Targets {
			buf.labels[i] = cfg.Graph.Labels[v]
		}
		b.Feats = buf.feats
		b.Labels = buf.labels
	} else if cfg.Source != nil {
		st := cfg.Source.Access(b.MB.InputNodes)
		b.Miss, b.CacheOps, b.TransferBytes = st.Miss, st.CacheOps, st.TransferBytes
	}
	return nil
}

// recoveredErr converts a recovered panic value into the error Run
// returns. Panics already contained once by the tensor pool
// (*tensor.WorkerPanic) pass through as errors, keeping the original
// stack; anything else is wrapped with where it was recovered.
func recoveredErr(where string, r any) error {
	if wp, ok := r.(*tensor.WorkerPanic); ok {
		return fmt.Errorf("pipeline: %s: %w", where, wp)
	}
	if err, ok := r.(error); ok {
		// Error-valued panics (e.g. a no-error-return site converting an
		// injected fault) keep their chain, so errors.Is still works on
		// the contained result.
		return fmt.Errorf("pipeline: %s: panic: %w", where, err)
	}
	return fmt.Errorf("pipeline: %s: panic: %v", where, r)
}

// produce is the one epoch loop: every (epoch, batch) in order, a
// cancellation check, sampleBatch, then emit. The first
// error — cancellation, a sampling failure, or emit's — ends the loop.
func (cfg *Config) produce(emit func(*Batch) error) error {
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for i, targets := range cfg.plan(epoch) {
			if err := cfg.ctxErr(); err != nil {
				return err
			}
			b, err := cfg.sampleBatch(epoch, i, targets)
			if err != nil {
				return err
			}
			if err := emit(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run drives the pipeline: consume is called for every batch in (epoch,
// index) order, and epochEnd (optional) after the last batch of each
// epoch — both on the calling goroutine, so consumers may use non-thread-
// safe state (model, optimizer, workspace) freely. Run returns the first
// callback or producer error after shutting the producer down; no
// goroutine outlives the call, and no batch is delivered after the first
// failure. Panics — the producer's, the consumer's, or a
// *tensor.WorkerPanic rethrown by a kernel dispatched from either — are
// contained here and returned as errors after the teardown completes.
func Run(cfg Config, consume func(*Batch) error, epochEnd func(epoch int) error) (err error) {
	if err := cfg.validate(); err != nil {
		return err
	}
	if epochEnd == nil {
		epochEnd = func(int) error { return nil }
	}
	defer func() {
		if r := recover(); r != nil {
			err = recoveredErr("run", r)
		}
	}()
	// deliver is the consumer side every depth shares, on the caller's
	// goroutine: a cancellation check, epochEnd for the previous epoch
	// when b opens a new one, then consume. A cancelled run therefore
	// never ends its partial epoch.
	epoch := 0
	deliver := func(b *Batch) error {
		if err := cfg.ctxErr(); err != nil {
			return err
		}
		if b.Epoch != epoch {
			if err := epochEnd(epoch); err != nil {
				return err
			}
			epoch = b.Epoch
		}
		return consume(b)
	}
	if cfg.Prefetch > 0 {
		err = runAsync(cfg, deliver)
	} else {
		var buf *bufferSet
		if cfg.Scratch != nil {
			buf = &cfg.Scratch.buf
		} else {
			buf = &bufferSet{}
		}
		err = cfg.produce(func(b *Batch) error {
			if err := cfg.prepareBatch(b, buf); err != nil {
				return err
			}
			return deliver(b)
		})
	}
	// A failed run is partial, so its last epoch must not end.
	if err != nil {
		return err
	}
	return epochEnd(epoch)
}

// errStopped is what the producer's send or buffer acquire returns once
// the consumer has left: the producer unwinds without recording a
// failure.
var errStopped = errors.New("pipeline: stopped")

// runAsync runs produce on one producer goroutine, which prepares each
// batch and queues it up to Prefetch deep for deliver on the caller's
// goroutine. It takes its own copy of cfg, which the producer shares:
// only that copy moves to the heap, so an inline run allocates no Config.
func runAsync(cfg Config, deliver func(*Batch) error) error {
	depth := min(cfg.Prefetch, maxPrefetch)

	// Gather ring: one set being filled, up to depth queued, one held by
	// the consumer. Only Gather runs draw from it (the consumer returns
	// each set after use); the acquire blocks when the consumer falls
	// behind, which is the pipeline's natural backpressure.
	free := make(chan *bufferSet, depth+2)
	for i := 0; i < depth+2; i++ {
		free <- &bufferSet{}
	}
	// out is the prefetch queue itself, depth batches deep.
	out := make(chan *Batch, depth)
	// done tears the producer down on early exit (consumer error or
	// panic): its acquire and send select against it, so it never blocks
	// on an abandoned channel. exited closes once it has returned.
	done, exited := make(chan struct{}), make(chan struct{})
	defer func() {
		close(done)
		<-exited
	}()

	// prodErr is the producer's failure (injected error, cancelled
	// context, or recovered panic). The producer writes it before it
	// closes out, so the consumer reads it once out is drained.
	var prodErr error
	go func() {
		defer close(exited)
		defer close(out)
		defer func() {
			if r := recover(); r != nil {
				prodErr = recoveredErr("producer", r)
			}
		}()
		err := cfg.produce(func(b *Batch) error {
			var buf *bufferSet
			if cfg.Gather {
				select {
				case buf = <-free:
				case <-done:
					return errStopped
				}
			}
			if err := cfg.prepareBatch(b, buf); err != nil {
				return err
			}
			select {
			case out <- b:
				return nil
			case <-done:
				return errStopped
			}
		})
		if err != errStopped {
			prodErr = err
		}
	}()

	for b := range out {
		if err := deliver(b); err != nil {
			return err
		}
		if b.buf != nil {
			b.Feats, b.Labels = nil, nil
			free <- b.buf
			b.buf = nil
		}
	}
	// out closed: the producer finished, or failed and recorded why.
	return prodErr
}
