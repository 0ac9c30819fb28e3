package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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
	"gnnavigator/internal/sample"
	"gnnavigator/internal/serve"
)

func testServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server, *infer.Engine) {
	t.Helper()
	return testServerWith(t, cfg, nil, nil)
}

// testServerWith is testServer with the engine's sampler and feature
// plane chosen by the caller (nil: the engine's defaults).
func testServerWith(t *testing.T, cfg serve.Config, smp sample.Sampler, src func(*graph.Graph) cache.FeatureSource) (*serve.Server, *httptest.Server, *infer.Engine) {
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
	ecfg := infer.Config{Graph: d.Graph, Model: m, Seed: 11, Sampler: smp}
	if src != nil {
		ecfg.Source = src(d.Graph)
	}
	eng, err := infer.New(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = eng
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts, eng
}

func postPredict(t *testing.T, url string, body string) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Post(url+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("non-JSON response (status %d): %v", resp.StatusCode, err)
	}
	return resp, out
}

// TestPredictEndpoint: a lone request is its own coalesced batch, so
// the served classes must match a direct engine Predict of the same
// targets exactly.
func TestPredictEndpoint(t *testing.T) {
	_, ts, eng := testServer(t, serve.Config{})
	targets := []int32{3, 1, 4, 1, 5}
	want, err := eng.Predict(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postPredict(t, ts.URL, `{"vertices":[3,1,4,1,5]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out["error"])
	}
	var classes []int32
	if err := json.Unmarshal(out["classes"], &classes); err != nil {
		t.Fatal(err)
	}
	if len(classes) != len(targets) {
		t.Fatalf("%d classes for %d targets", len(classes), len(targets))
	}
	for i := range classes {
		if classes[i] != want.Classes[i] {
			t.Errorf("class[%d] = %d, engine says %d", i, classes[i], want.Classes[i])
		}
	}
}

func TestPredictRejections(t *testing.T) {
	_, ts, _ := testServer(t, serve.Config{MaxVertices: 4})
	cases := []struct {
		name, body string
	}{
		{"bad json", `{"vertices":`},
		{"empty list", `{"vertices":[]}`},
		{"out of range", `{"vertices":[999999]}`},
		{"negative", `{"vertices":[-1]}`},
		{"too many", `{"vertices":[1,2,3,4,5]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, out := postPredict(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400 (%s)", resp.StatusCode, out["error"])
			}
			if len(out["error"]) == 0 {
				t.Error("no error message in rejection body")
			}
		})
	}
	resp, err := http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict: status %d, want 405", resp.StatusCode)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	_, ts, _ := testServer(t, serve.Config{})
	for i := 0; i < 3; i++ {
		resp, out := postPredict(t, ts.URL, fmt.Sprintf(`{"vertices":[%d,%d]}`, 2*i, 2*i+1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, out["error"])
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests != 3 || st.Errors != 0 || st.Vertices != 6 {
		t.Errorf("counters off: %+v", st)
	}
	if st.Flushes < 1 || st.Flushes > 3 {
		t.Errorf("flushes %d for 3 sequential requests", st.Flushes)
	}
	if st.P50Ms <= 0 || st.P99Ms < st.P50Ms {
		t.Errorf("percentiles degenerate: p50=%v p99=%v", st.P50Ms, st.P99Ms)
	}
	if st.RPS <= 0 || st.UptimeSec <= 0 {
		t.Errorf("throughput degenerate: %+v", st)
	}
	if st.HitRate != 0 || st.TransferredBytes != 0 {
		t.Errorf("uncached engine reported cache stats: %+v", st)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz["status"] != "ok" {
		t.Errorf("healthz: status %d, body %v", resp.StatusCode, hz)
	}
	if hz["model"] != "sage" && hz["model"] != "SAGE" {
		t.Errorf("healthz model = %v", hz["model"])
	}
}

// TestConcurrentRequestsCoalesce: requests that arrive while the engine
// is busy queue (visible as "queued" in /stats) and are all answered by
// the one flush that follows; none of it depends on a time window.
func TestConcurrentRequestsCoalesce(t *testing.T) {
	gate := infertest.NewGate(infer.EvalSampler(2))
	srv, ts, _ := testServerWith(t, serve.Config{}, gate, nil)
	entered, release := gate.StallNext()
	defer release()
	const clients = 8
	var wg sync.WaitGroup
	post := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, out := postPredict(t, ts.URL, fmt.Sprintf(`{"vertices":[%d,%d]}`, 3*i, 3*i+1))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, out["error"])
			}
		}()
	}
	post(clients) // its flush stalls in the sampler
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the stalled flush never reached the sampler")
	}
	for i := 0; i < clients; i++ {
		post(i)
	}
	var st serve.Stats
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Queued == clients {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/stats queued = %d, want %d behind the stalled flush", st.Queued, clients)
		}
	}
	if st.Flushes != 1 {
		t.Errorf("%d flushes while the engine is stalled, want 1", st.Flushes)
	}
	release()
	wg.Wait()
	st = srv.Snapshot()
	if st.Requests != clients+1 || st.Errors != 0 || st.Queued != 0 {
		t.Errorf("counters off: %+v", st)
	}
	if st.Flushes != 2 || st.MeanBatch != float64(2+2*clients)/2 {
		t.Errorf("%d requests queued behind one flush: %d flushes, mean width %v; want 2 flushes, mean %v",
			clients, st.Flushes, st.MeanBatch, float64(2+2*clients)/2)
	}
}

// TestStatsConcurrentWithPredict: /stats reads the feature plane's
// counters while the coalescer's flush gathers through it and writes
// them, so polling it under load must be race-free (go test -race).
func TestStatsConcurrentWithPredict(t *testing.T) {
	lru := func(g *graph.Graph) cache.FeatureSource {
		src, err := cache.NewSource(cache.Config{Policy: cache.LRU, Capacity: 64}, g)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	srv, ts, _ := testServerWith(t, serve.Config{}, nil, lru)
	const clients, posts = 4, 25
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < posts; j++ {
				resp, out := postPredict(t, ts.URL, fmt.Sprintf(`{"vertices":[%d,%d]}`, 97*i+j, 13*j+i))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d: %s", i, resp.StatusCode, out["error"])
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st serve.Stats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Snapshot(); st.Requests != clients*posts || st.Errors != 0 || st.TransferredBytes == 0 {
		t.Errorf("after %d requests: %+v", clients*posts, st)
	}
}

// TestCloseLeavesNoGoroutines: once the listener and the server are
// closed, neither a handler nor the coalescer's dispatcher remains.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	srv, ts, _ := testServer(t, serve.Config{})
	if resp, out := postPredict(t, ts.URL, `{"vertices":[1,2]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out["error"])
	}
	ts.Close()
	srv.Close()
	leakcheck.Check(t, leakcheck.ServeHandler, leakcheck.Dispatcher)
}

// TestChaosServeDecode arms the serve/decode injection point: the
// faulted request must come back as a clean 500 with a recognizable
// injected error, and the very next request must succeed.
func TestChaosServeDecode(t *testing.T) {
	defer faultinject.Reset()
	_, ts, _ := testServer(t, serve.Config{})
	faultinject.Arm(faultinject.ServeDecode, faultinject.Spec{Kind: faultinject.Error, Count: 1})
	resp, out := postPredict(t, ts.URL, `{"vertices":[1]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("armed decode fault: status %d, want 500", resp.StatusCode)
	}
	if !bytes.Contains(out["error"], []byte("injected")) {
		t.Fatalf("fault surfaced unrecognizably: %s", out["error"])
	}
	faultinject.Reset()
	resp, out = postPredict(t, ts.URL, `{"vertices":[1]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after disarm: status %d: %s", resp.StatusCode, out["error"])
	}
}
