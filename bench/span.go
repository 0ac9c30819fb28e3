package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it, -1 for a root; times are nanoseconds since the child
// started tracing. The spans of one child share the file's run_id.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// tracer keeps spans in memory; write puts them on disk once, at exit.
// A nil tracer records nothing, so call sites need no "if traced".
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNs: now, EndNs: now, Parent: parent})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each
// other (concurrent stages) and may stick out of the parent; the covered
// part is the union of the child intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ch := kids[i]
		slices.SortFunc(ch, func(a, b int) int { return int(spans[a].StartNs - spans[b].StartNs) })
		covered, edge := int64(0), s.StartNs
		for _, c := range ch {
			lo, hi := max(spans[c].StartNs, edge), min(spans[c].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// byName groups span durations (seconds) and self times (seconds) by
// span name.
func byName(spans []span) (dur, self map[string][]float64) {
	dur, self = map[string][]float64{}, map[string][]float64{}
	for i, st := range selfTimes(spans) {
		s := spans[i]
		dur[s.Name] = append(dur[s.Name], float64(s.EndNs-s.StartNs)/1e9)
		self[s.Name] = append(self[s.Name], float64(st)/1e9)
	}
	return dur, self
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// write stores the spans and the self time summed by name.
func (t *tracer) write(path, runID string) error {
	_, self := byName(t.spans)
	selfSum := map[string]float64{}
	for name, v := range self {
		selfSum[name] = sum(v)
	}
	blob, err := json.Marshal(struct {
		RunID string             `json:"run_id"`
		SelfS map[string]float64 `json:"self_s_by_name"`
		Spans []span             `json:"spans"`
	}{runID, selfSum, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
