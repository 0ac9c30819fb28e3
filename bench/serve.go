package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/infer"
	"gnnavigator/internal/model"
	"gnnavigator/internal/serve"
)

// The serve workloads put an in-process serve.Server behind a real
// socket (httptest.NewServer) and drive it closed-loop: each client
// sends its next request only after the previous reply, because callers
// of gnnserve wait for their predictions. Load comes from this one
// process, one keep-alive connection per client.

const (
	serveCacheRatio = 0.1 // LRU plane of 10% of the rows
	serveModelSeed  = 11
	spanHeader      = "X-Bench-Span"
)

// loadClients is the closed loop's client count: one per core the
// process may use, so the generator never outnumbers the cores it shares
// with the server.
func loadClients() int { return max(1, min(runtime.NumCPU(), runtime.GOMAXPROCS(0))) }

// serveModel trains the bench's small SAGE model (set-up) and takes it
// through the GNAVMDL1 file gnnserve would load.
func (c *child) serveModel() (*model.Model, error) {
	path := filepath.Join(c.outDir, fmt.Sprintf("serve-model-%s.gnav", c.res.Mode))
	cfg := backend.Config{
		Dataset: dataset.OgbnArxiv, Platform: benchPlatform,
		Sampler: backend.SamplerSAGE, BatchSize: 1024, Fanouts: []int{10, 5},
		CachePolicy: cache.None, Model: model.SAGE, Hidden: 32, Layers: 2,
		Epochs: 1, LR: 0.01, Seed: serveModelSeed,
	}
	if _, err := backend.RunWith(cfg, backend.Options{EvalBatch: 512, SaveModelPath: path}); err != nil {
		return nil, err
	}
	var mdl *model.Model
	var err error
	load := timeIt(func() { mdl, err = model.Load(path) })
	if err != nil {
		return nil, err
	}
	save := timeIt(func() { err = model.Save(path, mdl) })
	if !c.traced {
		c.set("model.load_ms", load.Seconds()*1e3)
		c.set("model.save_ms", save.Seconds()*1e3)
	}
	return mdl, err
}

// serveStack is one cold inference stack: a fresh LRU plane and the
// engine over it.
type serveStack struct {
	dev *cache.Cache
	src cache.FeatureSource
	eng *infer.Engine
	smp *tracedSampler // nil unless traced
}

func (c *child) newStack(g *graph.Graph, mdl *model.Model, traced bool) (*serveStack, time.Duration, error) {
	s := &serveStack{}
	var err error
	build := timeIt(func() {
		if s.dev, err = cache.New(cache.LRU, int(serveCacheRatio*float64(g.NumVertices())), g); err == nil {
			s.src = cache.NewCachedSource(s.dev, g)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	cfg := infer.Config{Graph: g, Model: mdl, Seed: serveModelSeed, Source: s.src}
	if traced {
		s.smp = &tracedSampler{Sampler: infer.EvalSampler(mdl.Cfg().Layers), tr: c.tr, parent: -1}
		cfg.Sampler, cfg.Source = s.smp, &tracedSource{s.src, c.tr, -1}
	}
	s.eng, err = infer.New(cfg)
	return s, build, err
}

// loadResult is what the closed loop saw from the client side.
type loadResult struct {
	latMs             []float64 // successful requests, in completion order per client
	attempted, failed int
	firstErr          string
	wall              time.Duration
}

// drive runs the closed loop against baseURL for d, after a short
// unrecorded warm-up that opens the connections and fills lazily grown
// buffers. Every reply is checked: 200, one class per vertex, classes in
// range.
func (c *child) drive(baseURL string, g *graph.Graph, d time.Duration) loadResult {
	clients := loadClients()
	outs := make([]loadResult, clients)
	warm := max(d/10, 300*time.Millisecond)
	begin := time.Now().Add(warm)
	deadline := begin.Add(d)
	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &outs[ci]
			next := requestStream(c.workload, c.seed, ci, g.NumVertices())
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				verts := next()
				body, _ := json.Marshal(map[string][]int32{"vertices": verts})
				req, _ := http.NewRequest(http.MethodPost, baseURL+"/predict", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				id := -1
				if t0.After(begin) {
					if id = c.tr.begin("client.request", -1); id >= 0 {
						req.Header.Set(spanHeader, strconv.Itoa(id))
					}
				}
				err := predictOnce(client, req, len(verts), g.NumClasses)
				lat := time.Since(t0)
				if id >= 0 {
					c.tr.end(id)
				}
				if t0.Before(begin) {
					continue
				}
				out.attempted++
				if err != nil {
					out.failed++
					if out.firstErr == "" {
						out.firstErr = err.Error()
					}
					continue
				}
				out.latMs = append(out.latMs, float64(lat)/float64(time.Millisecond))
			}
		}()
	}
	wg.Wait()
	all := loadResult{wall: time.Since(begin)}
	for _, o := range outs {
		all.latMs = append(all.latMs, o.latMs...)
		all.attempted += o.attempted
		all.failed += o.failed
		if all.firstErr == "" {
			all.firstErr = o.firstErr
		}
	}
	return all
}

func predictOnce(client *http.Client, req *http.Request, want, numClasses int) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var pr struct {
		Classes []int32 `json:"classes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return fmt.Errorf("status %d, bad body: %w", resp.StatusCode, err)
	}
	io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	if resp.StatusCode != http.StatusOK || len(pr.Classes) != want {
		return fmt.Errorf("status %d, %d classes for %d vertices", resp.StatusCode, len(pr.Classes), want)
	}
	for _, cl := range pr.Classes {
		if cl < 0 || int(cl) >= numClasses {
			return fmt.Errorf("class %d out of range [0,%d)", cl, numClasses)
		}
	}
	return nil
}

func (c *child) serve() {
	ds := dataset.MustLoad(dataset.OgbnArxiv)
	g := ds.Graph
	mdl, err := c.serveModel()
	if err != nil {
		c.fail("serve model: %v", err)
		return
	}
	st, build, err := c.newStack(g, mdl, c.traced)
	var srv *serve.Server
	if err == nil {
		srv, err = serve.New(serve.Config{Engine: st.eng})
	}
	if err != nil {
		c.fail("serve stack: %v", err)
		return
	}
	// The traced server times every request at the handler boundary, as
	// a child of the client span named in the request header.
	handler := srv.Handler()
	if c.traced {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, err := strconv.Atoi(r.Header.Get(spanHeader))
			if err != nil {
				inner.ServeHTTP(w, r)
				return
			}
			id := c.tr.begin("serve.Handler", parent)
			inner.ServeHTTP(w, r)
			c.tr.end(id)
		})
	}
	ts := httptest.NewServer(handler)
	c.ready()
	load := c.drive(ts.URL, g, c.slice)
	stats := srv.Snapshot()
	ts.Close()
	srv.Close()

	c.res.Attempted, c.res.Failed = load.attempted, load.failed
	if load.failed > 0 {
		c.fail("%d of %d requests failed, first: %s", load.failed, load.attempted, load.firstErr)
	}
	if len(load.latMs) == 0 {
		c.fail("no request succeeded")
		return
	}
	lat := sortedCopy(load.latMs)
	if !c.traced {
		c.finish(load.wall, float64(len(lat)), float64(load.attempted))
		c.set("latency_p50_ms", percentile(lat, 50))
		c.set("latency_p99_ms", percentile(lat, 99))
		c.res.Samples = lat
		if p := tailPercentile(len(lat)); p < 99 {
			c.fail("only %d requests: fewer than ten lie beyond p99 (p%.0f is %.3f ms); lengthen -seconds", len(lat), p, percentile(lat, max(p, 50)))
		}
		c.note("%s: closed loop, %d clients, %d requests in %.2f s, hit ratio %.3f, %.1f vertices per flush",
			c.workload, loadClients(), load.attempted, load.wall.Seconds(), stats.HitRate, stats.MeanBatch)
		return
	}

	c.set("_traced_ops_per_s", float64(len(lat))/load.wall.Seconds())
	dur, _ := byName(c.tr.spans)
	handlerMs := p50(dur["serve.Handler"]) * 1e3
	c.set("serve.handler_ms_p50", handlerMs)
	c.set("serve.http_overhead_ms_p50", percentile(lat, 50)-handlerMs)
	c.set("serve.requests", float64(stats.Requests))
	c.set("serve.errors", float64(stats.Errors))
	c.set("infer.flushes", float64(stats.Flushes))
	c.set("infer.flush_width_mean", stats.MeanBatch)
	c.set("cache.build_ms", build.Seconds()*1e3)
	c.set("cache.gather_ms_p50", p50(dur["cache.GatherInto"])*1e3)
	c.sampleMetrics(st.smp, dur, load.wall)
	c.cacheMetrics(st.dev, st.src)
	c.serveLayers(g, mdl, int(stats.MeanBatch+0.5))
}

// serveLayers times the layers under the handler directly, each on a
// cold stack of its own and with this workload's request shapes: the
// engine alone, the coalescer in front of it without HTTP, and the
// handler's reject path.
func (c *child) serveLayers(g *graph.Graph, mdl *model.Model, flushWidth int) {
	const budget = 1200 * time.Millisecond
	ctx := context.Background()

	// Engine.Predict, one request at a time.
	st, _, err := c.newStack(g, mdl, false)
	if err != nil {
		c.fail("serve layers: %v", err)
		return
	}
	next := requestStream(c.workload, c.seed, 0, g.NumVertices())
	var direct []float64
	for start := time.Now(); time.Since(start) < budget; {
		verts := next()
		direct = append(direct, timeIt(func() { _, err = st.eng.Predict(ctx, verts) }).Seconds()*1e3)
		if err != nil {
			c.fail("Engine.Predict: %v", err)
			return
		}
	}
	direct = sortedCopy(direct)
	c.set("infer.predict_ms_p50", percentile(direct, 50))
	c.set("infer.predict_ms_p99", c.tailOf("infer.predict_ms_p99", direct))
	// ... and at the width the coalescer actually flushed at.
	wide := make([]int32, max(flushWidth, 1))
	var flush []float64
	for start := time.Now(); time.Since(start) < budget/2; {
		for i := range wide {
			wide[i] = next()[0]
		}
		flush = append(flush, timeIt(func() { _, err = st.eng.Predict(ctx, wide) }).Seconds()*1e3)
		if err != nil {
			c.fail("Engine.Predict: %v", err)
			return
		}
	}

	// Coalescer.Predict under the load's concurrency, no HTTP.
	if st, _, err = c.newStack(g, mdl, false); err != nil {
		c.fail("serve layers: %v", err)
		return
	}
	coal := infer.NewCoalescer(st.eng, infer.CoalescerConfig{})
	var mu sync.Mutex
	var coalesced []float64
	var wg sync.WaitGroup
	for ci := range loadClients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := requestStream(c.workload, c.seed, ci, g.NumVertices())
			var mine []float64
			for start := time.Now(); time.Since(start) < budget; {
				verts := next()
				var cerr error
				mine = append(mine, timeIt(func() { _, cerr = coal.Predict(ctx, verts) }).Seconds()*1e3)
				if cerr != nil {
					mu.Lock()
					c.fail("Coalescer.Predict: %v", cerr)
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			coalesced = append(coalesced, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	coal.Close()
	c.set("infer.coalesced_ms_p50", p50(coalesced))
	c.set("infer.coalesce_wait_ms_p50", p50(coalesced)-p50(flush))
	c.note("infer.coalesce_wait_ms_p50 = coalesced p50 %.3f ms - Engine.Predict p50 %.3f ms at the observed flush width of %d vertices",
		p50(coalesced), p50(flush), len(wide))

	// The reject path: decode and validate only.
	if st, _, err = c.newStack(g, mdl, false); err != nil {
		c.fail("serve layers: %v", err)
		return
	}
	srv, err := serve.New(serve.Config{Engine: st.eng})
	if err != nil {
		c.fail("serve layers: %v", err)
		return
	}
	defer srv.Close()
	h := srv.Handler()
	bad := []byte(fmt.Sprintf(`{"vertices":[0,%d]}`, g.NumVertices()))
	var reject []float64
	for range 300 {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(bad))
		reject = append(reject, timeIt(func() { h.ServeHTTP(rec, req) }).Seconds()*1e6)
		if rec.Code != http.StatusBadRequest {
			c.fail("out-of-range vertex answered %d, want 400", rec.Code)
			return
		}
	}
	c.set("serve.reject_us_p50", p50(reject))
}
