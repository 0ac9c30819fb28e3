// Package serve is the HTTP front of the inference engine: a stdlib
// net/http service over a loaded infer.Engine that coalesces concurrent
// /predict requests into minibatches through infer.Coalescer (group
// commit: an idle engine answers a lone request at once, a busy one
// answers everything that queued behind it in one flush), gathers
// features through whatever feature plane the engine was built with, and
// reports serving statistics (p50/p99 latency, throughput, queue depth,
// flush width, cache hit rate). cmd/gnnserve wires it to flags; the
// bench/ serve-zipf and serve-scan workloads drive it with closed-loop
// load.
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/infer"
)

// latencyWindow bounds the latency ring buffer: percentiles are over
// the most recent window, so a long-running server's tail reflects
// current behavior, not startup.
const latencyWindow = 16384

// Config wires a Server.
type Config struct {
	// Engine is the loaded inference engine requests run on.
	Engine *infer.Engine
	// MaxBatch bounds one coalesced flush, in vertices (the coalescer's
	// default applies when zero).
	MaxBatch int
	// MaxVertices bounds a single request's target count (default 1024):
	// a request larger than the coalescer's whole batch budget should be
	// split by the client, not monopolize the engine.
	MaxVertices int
}

// Server handles /predict, /stats and /healthz. Create with New, mount
// via Handler, stop with Close.
type Server struct {
	eng   *infer.Engine
	coal  *infer.Coalescer
	maxV  int
	start time.Time

	requests atomic.Int64
	errors   atomic.Int64
	vertices atomic.Int64

	mu   sync.Mutex
	ring [latencyWindow]float64 // request latency, milliseconds
	n    int                    // filled entries (≤ latencyWindow)
	next int                    // ring write cursor
}

// New starts the server's coalescer. Close releases it.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: need an engine")
	}
	if cfg.MaxVertices <= 0 {
		cfg.MaxVertices = 1024
	}
	return &Server{
		eng:   cfg.Engine,
		coal:  infer.NewCoalescer(cfg.Engine, infer.CoalescerConfig{MaxBatch: cfg.MaxBatch}),
		maxV:  cfg.MaxVertices,
		start: time.Now(),
	}, nil
}

// Close stops the coalescer: the flush in flight completes, requests
// still queued get infer.ErrCoalescerClosed.
func (s *Server) Close() { s.coal.Close() }

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

type predictRequest struct {
	Vertices []int32 `json:"vertices"`
}

type predictResponse struct {
	Classes []int32 `json:"classes"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.requests.Add(1)
	t0 := time.Now()
	if err := faultinject.Fire(faultinject.ServeDecode); err != nil {
		s.errors.Add(1)
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	var req predictRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		s.errors.Add(1)
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Vertices) == 0 {
		s.errors.Add(1)
		httpError(w, http.StatusBadRequest, "empty vertices list")
		return
	}
	if len(req.Vertices) > s.maxV {
		s.errors.Add(1)
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("%d vertices in one request, limit %d", len(req.Vertices), s.maxV))
		return
	}
	n := int32(s.eng.Graph().NumVertices())
	for _, v := range req.Vertices {
		if v < 0 || v >= n {
			s.errors.Add(1)
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("vertex %d out of range [0,%d)", v, n))
			return
		}
	}
	classes, err := s.coal.Predict(r.Context(), req.Vertices)
	if err != nil {
		s.errors.Add(1)
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.vertices.Add(int64(len(req.Vertices)))
	s.observe(time.Since(t0))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(predictResponse{Classes: classes})
}

// Stats is the /stats payload.
type Stats struct {
	Requests         int64   `json:"requests"`
	Errors           int64   `json:"errors"`
	Vertices         int64   `json:"vertices"`
	Queued           int     `json:"queued"`
	Flushes          int64   `json:"flushes"`
	MeanBatch        float64 `json:"mean_batch"`
	HitRate          float64 `json:"hit_rate"`
	TransferredBytes int64   `json:"transferred_bytes"`
	P50Ms            float64 `json:"p50_ms"`
	P99Ms            float64 `json:"p99_ms"`
	RPS              float64 `json:"rps"`
	UptimeSec        float64 `json:"uptime_sec"`
}

// Snapshot assembles the current statistics (also what /stats serves).
func (s *Server) Snapshot() Stats {
	st := Stats{
		Requests:  s.requests.Load(),
		Errors:    s.errors.Load(),
		Vertices:  s.vertices.Load(),
		Queued:    s.coal.Queued(),
		Flushes:   s.coal.Flushes(),
		MeanBatch: s.coal.MeanBatch(),
		UptimeSec: time.Since(s.start).Seconds(),
	}
	if src := s.eng.Source(); src != nil {
		st.HitRate = src.HitRate()
		st.TransferredBytes = src.TransferredBytes()
	}
	if st.UptimeSec > 0 {
		st.RPS = float64(st.Requests) / st.UptimeSec
	}
	st.P50Ms, st.P99Ms = s.percentiles()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":   "ok",
		"model":    string(s.eng.Model().Cfg().Kind),
		"vertices": s.eng.Graph().NumVertices(),
		"classes":  s.eng.Graph().NumClasses,
	})
}

// observe records one served request's latency in the ring.
func (s *Server) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	s.mu.Lock()
	s.ring[s.next] = ms
	s.next = (s.next + 1) % latencyWindow
	if s.n < latencyWindow {
		s.n++
	}
	s.mu.Unlock()
}

// percentiles returns p50/p99 over the latency window.
func (s *Server) percentiles() (p50, p99 float64) {
	s.mu.Lock()
	buf := append([]float64(nil), s.ring[:s.n]...)
	s.mu.Unlock()
	if len(buf) == 0 {
		return 0, 0
	}
	sort.Float64s(buf)
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(buf)))) - 1
		if i < 0 {
			i = 0
		}
		return buf[i]
	}
	return at(0.50), at(0.99)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
