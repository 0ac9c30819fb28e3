package infer_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/infer"
	"gnnavigator/internal/infer/infertest"
	"gnnavigator/internal/leakcheck"
	"gnnavigator/internal/model"
	"gnnavigator/internal/nn"
	"gnnavigator/internal/pipeline"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/tensor"
)

func evalFixture(t *testing.T) (*dataset.Dataset, *model.Model) {
	t.Helper()
	d, err := dataset.Load(dataset.OgbnArxiv)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(model.Config{
		Kind: model.SAGE, InDim: d.Graph.FeatDim, Hidden: 16,
		OutDim: d.Graph.NumClasses, Layers: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, m
}

// frozenEvaluate is a verbatim copy of backend's pre-extraction
// evaluateWith loop (the code infer.Engine.Accuracy replaced), kept here
// as the reference the engine is pinned against: same sampler, same
// batch size, same per-batch accuracy truncation.
func frozenEvaluate(m *model.Model, g *graph.Graph, idx []int32, limit int, seed int64, prefetch int) (float64, error) {
	if limit > 0 && limit < len(idx) {
		idx = idx[:limit]
	}
	fanouts := make([]int, m.Cfg().Layers)
	for i := range fanouts {
		fanouts[i] = 15
	}
	if m.Workspace() == nil {
		m.SetWorkspace(tensor.NewWorkspace())
	}
	ws := m.Workspace()
	var correct, total int
	err := pipeline.Run(pipeline.Config{
		Graph:     g,
		Sampler:   &sample.NodeWise{Fanouts: fanouts},
		Seed:      seed,
		Epochs:    1,
		BatchSize: 512,
		Targets:   idx,
		Gather:    true,
		Prefetch:  prefetch,
	}, func(b *pipeline.Batch) error {
		logits, err := m.Forward(b.MB, b.Feats, false)
		if err != nil {
			return err
		}
		correct += int(nn.Accuracy(logits, b.Labels) * float64(len(b.Labels)))
		total += len(b.Labels)
		ws.ReleaseAll()
		return nil
	}, nil)
	if err != nil {
		return 0, err
	}
	return float64(correct) / float64(total), nil
}

// TestAccuracyMatchesFrozenEvaluate is the extraction's acceptance test:
// Engine.Accuracy must be bitwise-identical to the loop it replaced, run
// at every prefetch depth, and stable across repeated calls on one engine
// (warm sampler scratch must not leak into results). Run under -race in
// CI.
func TestAccuracyMatchesFrozenEvaluate(t *testing.T) {
	d, m := evalFixture(t)
	eng, err := infer.New(infer.Config{Graph: d.Graph, Model: m, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 2; call++ {
		got, err := eng.Accuracy(context.Background(), d.ValIdx, 1200)
		if err != nil {
			t.Fatal(err)
		}
		for _, depth := range []int{0, 1, 4} {
			want, err := frozenEvaluate(m, d.Graph, d.ValIdx, 1200, 7, depth)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("call %d: accuracy %v, frozen reference at prefetch %d %v (not bitwise)",
					call, got, depth, want)
			}
		}
	}
	if _, err := (&infer.Engine{}).Accuracy(context.Background(), nil, 0); err == nil {
		t.Error("empty evaluation set accepted")
	}
}

// TestPredictDeterministicAcrossCalls pins Predict's outputs — every
// class and every logit — across engines and repeated calls.
func TestPredictDeterministicAcrossCalls(t *testing.T) {
	d, m := evalFixture(t)
	targets := d.ValIdx[:700] // spans two 512-vertex pipeline batches
	eng0, err := infer.New(infer.Config{Graph: d.Graph, Model: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	base, err := eng0.Predict(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Classes) != len(targets) || base.Logits.Rows != len(targets) {
		t.Fatalf("got %d classes / %d logit rows for %d targets",
			len(base.Classes), base.Logits.Rows, len(targets))
	}
	if base.Stats.Batches != 2 || base.Stats.SampledVertices == 0 {
		t.Errorf("implausible stats: %+v", base.Stats)
	}
	eng, err := infer.New(infer.Config{Graph: d.Graph, Model: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 2; call++ {
		got, err := eng.Predict(context.Background(), targets)
		if err != nil {
			t.Fatal(err)
		}
		for i := range targets {
			if got.Classes[i] != base.Classes[i] {
				t.Fatalf("call %d: class[%d] = %d, want %d", call, i, got.Classes[i], base.Classes[i])
			}
			for j, v := range got.Logits.Row(i) {
				if math.Float64bits(v) != math.Float64bits(base.Logits.Row(i)[j]) {
					t.Fatalf("call %d: logits[%d][%d] = %v, want %v (not bitwise)",
						call, i, j, v, base.Logits.Row(i)[j])
				}
			}
		}
	}
}

// TestPredictAlignsDuplicates: the sampler collapses repeated seed
// vertices, so Predict dedups and scatters — every duplicate must get
// exactly its vertex's result, in the caller's order.
func TestPredictAlignsDuplicates(t *testing.T) {
	d, m := evalFixture(t)
	eng, err := infer.New(infer.Config{Graph: d.Graph, Model: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	uniq := []int32{5, 9, 11}
	base, err := eng.Predict(context.Background(), uniq)
	if err != nil {
		t.Fatal(err)
	}
	dup := []int32{5, 9, 5, 11, 9, 5}
	got, err := eng.Predict(context.Background(), dup)
	if err != nil {
		t.Fatal(err)
	}
	at := map[int32]int{5: 0, 9: 1, 11: 2}
	for i, v := range dup {
		u := at[v]
		if got.Classes[i] != base.Classes[u] {
			t.Errorf("target %d (vertex %d): class %d, want %d", i, v, got.Classes[i], base.Classes[u])
		}
		for j, x := range got.Logits.Row(i) {
			if math.Float64bits(x) != math.Float64bits(base.Logits.Row(u)[j]) {
				t.Fatalf("target %d (vertex %d): logits diverge from unique run", i, v)
			}
		}
	}
	// Classes must agree with the returned logits.
	for i := range dup {
		best, arg := math.Inf(-1), 0
		for j, x := range got.Logits.Row(i) {
			if x > best {
				best, arg = x, j
			}
		}
		if int(got.Classes[i]) != arg {
			t.Errorf("target %d: class %d but logits argmax %d", i, got.Classes[i], arg)
		}
	}
}

// lruEngine returns an engine over m whose gathers go through a cold LRU
// feature plane holding 10 % of the rows — the serving configuration.
func lruEngine(t *testing.T, d *dataset.Dataset, m *model.Model) *infer.Engine {
	t.Helper()
	c, err := cache.New(cache.LRU, d.Graph.NumVertices()/10, d.Graph)
	if err != nil {
		t.Fatal(err)
	}
	e, err := infer.New(infer.Config{
		Graph: d.Graph, Model: m, Seed: 3, Source: cache.NewCachedSource(c, d.Graph),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPredictMatchesCachedSource: routing gathers through an LRU feature
// plane must not change a single output bit (features are float32 at
// rest in both routes), while the plane's transfer accounting shows up
// in Stats.
func TestPredictMatchesCachedSource(t *testing.T) {
	d, m := evalFixture(t)
	targets := d.ValIdx[:600]
	direct, err := infer.New(infer.Config{Graph: d.Graph, Model: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Predict(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lruEngine(t, d, m).Predict(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	for i := range targets {
		if got.Classes[i] != want.Classes[i] {
			t.Fatalf("class[%d] = %d through cache, %d direct", i, got.Classes[i], want.Classes[i])
		}
		for j, v := range got.Logits.Row(i) {
			if math.Float64bits(v) != math.Float64bits(want.Logits.Row(i)[j]) {
				t.Fatalf("logits[%d][%d] differ through cache (not bitwise)", i, j)
			}
		}
	}
	if got.Stats.Miss == 0 || got.Stats.TransferBytes == 0 {
		t.Errorf("cached run recorded no transfers: %+v", got.Stats)
	}
	if want.Stats.Miss != 0 || want.Stats.CacheOps != 0 {
		t.Errorf("direct run recorded cache activity: %+v", want.Stats)
	}
}

// TestZipfBeatsUniformHitRate is the reason the serving plane is an LRU:
// at equal capacity (10 % of the rows, cold start) the same number of
// single-vertex Predict calls must hit more often when popularity is
// Zipf-skewed than when every vertex is equally likely. A plane where
// it does not is broken, not a tradeoff.
func TestZipfBeatsUniformHitRate(t *testing.T) {
	d, m := evalFixture(t)
	nV := d.Graph.NumVertices()
	hitRate := func(draw func() int32) float64 {
		e := lruEngine(t, d, m)
		for i := 0; i < 1500; i++ {
			if _, err := e.Predict(context.Background(), []int32{draw()}); err != nil {
				t.Fatal(err)
			}
		}
		return e.Source().HitRate()
	}
	uniRNG := rand.New(rand.NewSource(17))
	uniform := hitRate(func() int32 { return uniRNG.Int31n(int32(nV)) })
	zipf := rand.NewZipf(rand.New(rand.NewSource(17)), 1.3, 1, uint64(nV-1))
	skewed := hitRate(func() int32 { return int32(zipf.Uint64()) })
	if skewed <= uniform {
		t.Errorf("zipf hit rate %.3f not above uniform %.3f at equal capacity (%d rows)", skewed, uniform, nV/10)
	}
}

// TestResidentScratchIsBitwiseInvisible: the engine keeps Predict's
// inline gather buffer across calls. A fresh engine's first call has
// nothing resident and allocates exactly as a scratch-less run does; a
// warm engine gathers into a buffer still holding a larger, different
// call's rows. Every logit must be identical bit for bit, and Accuracy
// on the warm engine — which keeps no buffer of its own — must still
// match the frozen scratch-less loop.
func TestResidentScratchIsBitwiseInvisible(t *testing.T) {
	d, m := evalFixture(t)
	small, big := d.ValIdx[:40], d.ValIdx[300:1000]
	wantAcc, err := frozenEvaluate(m, d.Graph, d.ValIdx, 600, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := infer.Config{Graph: d.Graph, Model: m, Seed: 3}
	fresh, err := infer.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Predict(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := infer.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Predict(context.Background(), big); err != nil {
		t.Fatal(err)
	}
	got, err := warm.Predict(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Classes, want.Classes) {
		t.Errorf("classes differ on a warm engine")
	}
	for i, v := range got.Logits.Data {
		if math.Float64bits(v) != math.Float64bits(want.Logits.Data[i]) {
			t.Fatalf("logit %d = %v on a warm engine, %v on a fresh one (not bitwise)",
				i, v, want.Logits.Data[i])
		}
	}
	acc, err := warm.Accuracy(context.Background(), d.ValIdx, 600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(acc) != math.Float64bits(wantAcc) {
		t.Errorf("accuracy %v on a warm engine, frozen reference %v (not bitwise)", acc, wantAcc)
	}
}

func TestEngineValidation(t *testing.T) {
	d, m := evalFixture(t)
	if _, err := infer.New(infer.Config{Model: m}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := infer.New(infer.Config{Graph: d.Graph}); err == nil {
		t.Error("nil model accepted")
	}
	bad, err := model.New(model.Config{
		Kind: model.SAGE, InDim: d.Graph.FeatDim + 1, Hidden: 4,
		OutDim: d.Graph.NumClasses, Layers: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := infer.New(infer.Config{Graph: d.Graph, Model: bad}); err == nil {
		t.Error("input-width mismatch accepted")
	}
	eng, err := infer.New(infer.Config{Graph: d.Graph, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Predict(context.Background(), nil); err == nil {
		t.Error("empty target set accepted")
	}
	if _, err := eng.Predict(context.Background(), []int32{int32(d.Graph.NumVertices())}); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := eng.Predict(context.Background(), []int32{-1}); err == nil {
		t.Error("negative target accepted")
	}
}

func TestPredictHonorsContext(t *testing.T) {
	d, m := evalFixture(t)
	eng, err := infer.New(infer.Config{Graph: d.Graph, Model: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Predict(ctx, d.ValIdx[:600]); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Predict returned %v, want context.Canceled", err)
	}
	if _, err := eng.Accuracy(ctx, d.ValIdx, 600); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Accuracy returned %v, want context.Canceled", err)
	}
}

// The coalescer tests hold a flush in flight with an infertest.Gate around
// the engine's sampler and watch Coalescer.Queued before letting it go,
// so they pin what the dispatcher does while the engine is busy — not
// what happened to fit in a time window.

// fullNeighborhood is the sampler per-request equality is pinned with.
// Fanout-limited sampling draws different neighborhoods depending on who
// shares the batch; fanout <= 0 takes every neighbor and consumes no
// RNG, so each target's logits are a function of the target alone,
// whatever batch it rides in.
func fullNeighborhood() sample.Sampler { return &sample.NodeWise{Fanouts: []int{0, 0}} }

func gatedCoalescer(t *testing.T, smp sample.Sampler, maxBatch int) (*infer.Engine, *infertest.Gate, *infer.Coalescer) {
	t.Helper()
	d, m := evalFixture(t)
	gate := infertest.NewGate(smp)
	eng, err := infer.New(infer.Config{Graph: d.Graph, Model: m, Seed: 3, Sampler: gate})
	if err != nil {
		t.Fatal(err)
	}
	col := infer.NewCoalescer(eng, infer.CoalescerConfig{MaxBatch: maxBatch})
	t.Cleanup(col.Close)
	return eng, gate, col
}

// pending is one Coalescer.Predict running on its own goroutine.
type pending struct {
	done    chan struct{}
	classes []int32
	err     error
}

func goPredict(ctx context.Context, col *infer.Coalescer, targets []int32) *pending {
	p := &pending{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.classes, p.err = col.Predict(ctx, targets)
	}()
	return p
}

// stallFlush sends one request into an idle coalescer with the gate
// armed and returns once its flush is in flight, stalled in the sampler.
func stallFlush(t *testing.T, gate *infertest.Gate, col *infer.Coalescer, targets []int32) (blocker *pending, release func()) {
	t.Helper()
	entered, release := gate.StallNext()
	t.Cleanup(release)
	blocker = goPredict(context.Background(), col, targets)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the stalled flush never reached the sampler")
	}
	return blocker, release
}

// waitQueued polls the queue gauge until it reads want.
func waitQueued(t *testing.T, col *infer.Coalescer, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for col.Queued() != want {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d", col.Queued(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// flushedVerts is the total width of all flushes so far.
func flushedVerts(col *infer.Coalescer) int {
	return int(math.Round(col.MeanBatch() * float64(col.Flushes())))
}

func triple(i int) []int32 { return []int32{int32(3 * i), int32(3*i + 1), int32(3*i + 2)} }

// TestCoalescerMergesConcurrentRequests pins the group-commit rule: a
// lone request on an idle coalescer is exactly one flush of its own
// width; requests that queue behind a busy engine ride the next flush
// together; and every caller gets exactly the answer a solo Predict
// would give it.
func TestCoalescerMergesConcurrentRequests(t *testing.T) {
	eng, gate, col := gatedCoalescer(t, fullNeighborhood(), 4096)
	const clients = 8
	want := make([][]int32, clients)
	for i := range want {
		p, err := eng.Predict(context.Background(), triple(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.Classes
	}

	// Idle: no company to wait for, so none is waited for.
	got, err := col.Predict(context.Background(), triple(0))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want[0]) {
		t.Errorf("lone request: classes %v, solo engine says %v", got, want[0])
	}
	if f, v := col.Flushes(), flushedVerts(col); f != 1 || v != 3 {
		t.Fatalf("lone request on an idle coalescer: %d flushes of %d vertices in all, want 1 of 3", f, v)
	}
	if q := col.Queued(); q != 0 {
		t.Fatalf("idle coalescer reports %d queued", q)
	}

	// Busy: width grows with what queued during the stalled flush.
	blocker, release := stallFlush(t, gate, col, triple(0))
	reqs := make([]*pending, clients)
	for i := range reqs {
		reqs[i] = goPredict(context.Background(), col, triple(i))
	}
	waitQueued(t, col, clients)
	if f := col.Flushes(); f != 2 {
		t.Fatalf("%d flushes while the engine is stalled, want 2 (nothing may start behind a running flush)", f)
	}
	release()
	<-blocker.done
	if blocker.err != nil {
		t.Fatalf("stalled request: %v", blocker.err)
	}
	for i, r := range reqs {
		<-r.done
		if r.err != nil {
			t.Fatalf("client %d: %v", i, r.err)
		}
		if !slices.Equal(r.classes, want[i]) {
			t.Errorf("client %d: coalesced classes %v, solo %v", i, r.classes, want[i])
		}
	}
	if f, v := col.Flushes(), flushedVerts(col); f != 3 || v != 3+3+3*clients {
		t.Errorf("%d requests queued behind one flush: %d flushes of %d vertices in all, want 3 of %d",
			clients, f, v, 3+3+3*clients)
	}
}

// TestCoalescerSplitsAtMaxBatch: MaxBatch bounds a flush. Requests join
// in arrival order while they fit, so a queue of 3+3+3+7+3+3 vertices
// behind a 6-vertex bound leaves as [3 3] [3] [7] [3 3]: the request
// that does not fit starts the next flush, and one larger than the bound
// flushes alone, whole.
func TestCoalescerSplitsAtMaxBatch(t *testing.T) {
	_, gate, col := gatedCoalescer(t, infer.EvalSampler(2), 6)
	blocker, release := stallFlush(t, gate, col, triple(0))
	sizes := []int{3, 3, 3, 7, 3, 3}
	reqs := make([]*pending, len(sizes))
	next := int32(100)
	for i, n := range sizes {
		targets := make([]int32, n)
		for j := range targets {
			targets[j] = next
			next++
		}
		reqs[i] = goPredict(context.Background(), col, targets)
		waitQueued(t, col, i+1) // one at a time: arrival order is the queue order
	}
	release()
	<-blocker.done
	for i, r := range reqs {
		<-r.done
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if len(r.classes) != sizes[i] {
			t.Errorf("request %d: %d classes for %d targets", i, len(r.classes), sizes[i])
		}
	}
	if f, v := col.Flushes(), flushedVerts(col); f != 1+4 || v != 3+22 {
		t.Errorf("22 queued vertices behind MaxBatch 6: %d flushes of %d vertices in all, want 5 of 25", f, v)
	}
}

func TestCoalescerCloseAndContext(t *testing.T) {
	_, gate, col := gatedCoalescer(t, infer.EvalSampler(2), 0)
	if _, err := col.Predict(context.Background(), nil); err == nil {
		t.Error("empty request accepted")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := col.Predict(cancelled, []int32{1}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled request returned %v, want context.Canceled", err)
	}

	// Close with a flush in flight and a non-empty queue: the flush
	// completes, every queued waiter is answered with ErrCoalescerClosed.
	blocker, release := stallFlush(t, gate, col, triple(0))
	const waiters = 4
	reqs := make([]*pending, waiters)
	for i := range reqs {
		reqs[i] = goPredict(context.Background(), col, triple(i+1))
	}
	waitQueued(t, col, waiters)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		col.Close()
	}()
	// Close is in effect once Predict refuses; a cancelled probe leaves
	// nothing behind if it got in before that.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := col.Predict(cancelled, []int32{1}); errors.Is(err, infer.ErrCoalescerClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never took effect")
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a flush was in flight")
	default:
	}
	release()
	<-closed
	<-blocker.done
	if blocker.err != nil || len(blocker.classes) != 3 {
		t.Errorf("flush in flight at Close: classes %v, err %v; want it to complete", blocker.classes, blocker.err)
	}
	for i, r := range reqs {
		<-r.done
		if !errors.Is(r.err, infer.ErrCoalescerClosed) {
			t.Errorf("queued waiter %d got (%v, %v), want ErrCoalescerClosed", i, r.classes, r.err)
		}
	}
	if f := col.Flushes(); f != 1 {
		t.Errorf("%d flushes, want 1: nothing queued may run after Close", f)
	}
	col.Close() // idempotent
	if _, err := col.Predict(context.Background(), []int32{1}); !errors.Is(err, infer.ErrCoalescerClosed) {
		t.Errorf("Predict after Close returned %v, want ErrCoalescerClosed", err)
	}
	leakcheck.Check(t, leakcheck.Dispatcher)
}

// TestChaosCancelledWhileQueued: a request cancelled while it waits
// behind a busy engine has already returned ctx.Err(); the next flush
// must not carry its vertices.
func TestChaosCancelledWhileQueued(t *testing.T) {
	_, gate, col := gatedCoalescer(t, infer.EvalSampler(2), 0)
	blocker, release := stallFlush(t, gate, col, triple(0))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	doomed := goPredict(ctx, col, []int32{10, 11, 12, 13, 14})
	waitQueued(t, col, 1)
	kept := goPredict(context.Background(), col, []int32{20, 21})
	waitQueued(t, col, 2)
	cancel()
	<-doomed.done
	if !errors.Is(doomed.err, context.Canceled) {
		t.Fatalf("cancelled request returned %v, want context.Canceled", doomed.err)
	}
	release()
	<-blocker.done
	<-kept.done
	if blocker.err != nil || kept.err != nil {
		t.Fatalf("surviving requests failed: %v, %v", blocker.err, kept.err)
	}
	if len(kept.classes) != 2 {
		t.Errorf("kept request: %d classes for 2 targets", len(kept.classes))
	}
	if f, v := col.Flushes(), flushedVerts(col); f != 2 || v != 3+2 {
		t.Errorf("%d flushes of %d vertices in all, want 2 of 5: the cancelled request's 5 vertices must not be computed", f, v)
	}
}

// TestChaosServeFlush arms the serve/flush injection point: the flush
// must fail every request of its batch with a recognizable injected
// error, and the coalescer must serve cleanly once disarmed.
func TestChaosServeFlush(t *testing.T) {
	defer faultinject.Reset()
	d, m := evalFixture(t)
	eng, err := infer.New(infer.Config{Graph: d.Graph, Model: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	col := infer.NewCoalescer(eng, infer.CoalescerConfig{})
	defer col.Close()
	faultinject.Arm(faultinject.ServeFlush, faultinject.Spec{Kind: faultinject.Error, Count: 1})
	if _, err := col.Predict(context.Background(), []int32{1, 2}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("armed flush fault produced %v, want ErrInjected", err)
	}
	faultinject.Reset()
	classes, err := col.Predict(context.Background(), []int32{1, 2})
	if err != nil {
		t.Fatalf("flush after disarm: %v", err)
	}
	if len(classes) != 2 {
		t.Fatalf("got %d classes, want 2", len(classes))
	}
}
