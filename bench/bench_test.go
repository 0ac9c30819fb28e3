package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"gnnavigator/internal/dataset"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {5000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// The rule itself: at the chosen percentile ten samples lie beyond,
	// at the next one up they do not.
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := percentile(sorted[:999], 99); got != 990 {
		t.Errorf("p99 of 1..999 = %v, want 990 (nine beyond: tailPercentile must refuse it)", got)
	}
}

func TestMedianMinMax(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	in := []float64{5, 2, 9}
	s := summarize("ms", in)
	if s.Value != 5 || s.Min != 2 || s.Max != 9 || s.Unit != "ms" {
		t.Errorf("summarize = %+v", s)
	}
	if !reflect.DeepEqual(in, []float64{5, 2, 9}) {
		t.Errorf("summarize reordered its input: %v", in)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},     // nested, holds a grandchild
		{Name: "a.in", StartNs: 15, EndNs: 25, Parent: 1},  // covered time counts once, under a
		{Name: "b", StartNs: 30, EndNs: 60, Parent: 0},     // overlaps a by 10
		{Name: "c", StartNs: 90, EndNs: 120, Parent: 0},    // sticks out of the parent by 20
		{Name: "d", StartNs: 35, EndNs: 38, Parent: 0},     // wholly inside a and b
		{Name: "other", StartNs: 5, EndNs: 6, Parent: -1},  // a second root
		{Name: "empty", StartNs: 50, EndNs: 50, Parent: 3}, // zero length
	}
	// root covers [10,60) and [90,100) = 60 of its 100.
	want := []int64{40, 20, 10, 30, 30, 3, 1, 0}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNilIsSilent(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer returned span %d", id)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	draw := func(workload string, seed int64, client int) [][]int32 {
		next := requestStream(workload, seed, client, 6000)
		out := make([][]int32, 50)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	for _, w := range []string{wZ, wC} {
		if !reflect.DeepEqual(draw(w, 7, 0), draw(w, 7, 0)) {
			t.Errorf("%s: same seed, different request stream", w)
		}
		if reflect.DeepEqual(draw(w, 7, 0), draw(w, 8, 0)) {
			t.Errorf("%s: different seeds, same request stream", w)
		}
		if reflect.DeepEqual(draw(w, 7, 0), draw(w, 7, 1)) {
			t.Errorf("%s: two clients share a request stream", w)
		}
	}
	for _, req := range draw(wZ, 1, 0) {
		if len(req) < 1 || len(req) > 3 {
			t.Errorf("serve-zipf request of %d vertices", len(req))
		}
	}
	for _, req := range draw(wC, 1, 0) {
		if len(req) != 64 {
			t.Errorf("serve-scan request of %d vertices", len(req))
		}
	}

	a, b, other := sweepProbes(7, 12, 2), sweepProbes(7, 12, 2), sweepProbes(8, 12, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("sweep: same seed, different probe list")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("sweep: different seeds, same probe list")
	}
	// A seed changes streams, never shapes: the work stays the same.
	for i := range a {
		x, y := a[i], other[i]
		x.Seed, y.Seed = 0, 0
		if !reflect.DeepEqual(x, y) {
			t.Errorf("sweep probe %d changes shape with the seed: %+v vs %+v", i, x, y)
		}
	}
	if planKeys(a) != planKeys(other) {
		t.Error("sweep: re-seeding changed how many probes share a sampling core")
	}

	if !reflect.DeepEqual(targetSpec(7), targetSpec(7)) || reflect.DeepEqual(targetSpec(7), targetSpec(8)) {
		t.Error("navigate: target graph spec is not a function of the seed alone")
	}
}

// TestTargetSpecIsArxiv pins the numbers targetSpec repeats from
// internal/dataset's private table: under ogbn-arxiv's own name and seed
// the spec must synthesise the registered ogbn-arxiv, so a change there
// cannot silently make navigate benchmark another graph.
func TestTargetSpecIsArxiv(t *testing.T) {
	spec := targetSpec(1)
	spec.Name, spec.Seed = dataset.OgbnArxiv, 1001
	got, err := dataset.Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := dataset.MustLoad(dataset.OgbnArxiv)
	if got.Graph.NumVertices() != want.Graph.NumVertices() || got.Graph.NumEdges() != want.Graph.NumEdges() ||
		got.Graph.FeatDim != want.Graph.FeatDim || got.Graph.NumClasses != want.Graph.NumClasses {
		t.Errorf("graph: %d vertices, %d edges, %d features, %d classes; ogbn-arxiv has %d, %d, %d, %d",
			got.Graph.NumVertices(), got.Graph.NumEdges(), got.Graph.FeatDim, got.Graph.NumClasses,
			want.Graph.NumVertices(), want.Graph.NumEdges(), want.Graph.FeatDim, want.Graph.NumClasses)
	}
	if !reflect.DeepEqual(got.TrainIdx, want.TrainIdx) || !reflect.DeepEqual(got.ValIdx, want.ValIdx) || !reflect.DeepEqual(got.TestIdx, want.TestIdx) {
		t.Error("splits differ from ogbn-arxiv's")
	}
	if !reflect.DeepEqual(got.Graph.Feature(0), want.Graph.Feature(0)) {
		t.Error("features differ from ogbn-arxiv's")
	}
	if got.FullVertices != want.FullVertices || got.FullFeatDim != want.FullFeatDim || got.FullAvgDegree != want.FullAvgDegree {
		t.Errorf("paper-scale metadata %d/%d/%g, ogbn-arxiv has %d/%d/%g",
			got.FullVertices, got.FullFeatDim, got.FullAvgDegree, want.FullVertices, want.FullFeatDim, want.FullAvgDegree)
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	s := func(lo, med, hi float64) summary { return summary{Value: med, Min: lo, Max: hi} }
	for _, tc := range []struct {
		name string
		m    metric
		a, b summary
		want string
	}{
		{"same", lower, s(99, 100, 101), s(99, 100, 101), "ok"},
		{"within bound", lower, s(99, 100, 101), s(107, 108, 109), "ok"},
		{"slower beyond bound", lower, s(99, 100, 101), s(114, 115, 116), "worse"},
		{"faster", lower, s(99, 100, 101), s(50, 51, 52), "ok"},
		{"throughput fell", higher, s(99, 100, 101), s(80, 81, 82), "worse"},
		{"throughput rose", higher, s(99, 100, 101), s(120, 121, 122), "ok"},
		{"wide and overlapping", lower, s(90, 100, 125), s(95, 118, 130), "unresolved"},
		{"wide but every run worse", lower, s(90, 100, 110), s(140, 150, 170), "worse"},
		{"wide but every run better", lower, s(90, 100, 125), s(50, 60, 70), "ok"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareGates writes pairs of results files and checks what
// -compare makes of them: it is the gate later changes are judged with.
func TestCompareGates(t *testing.T) {
	base := func() *results {
		r := &results{Env: envInfo{Seed: 1}, Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			wr := &workloadResult{Correct: true, Attempted: 1000, Metrics: map[string]summary{}}
			for _, m := range endToEnd {
				wr.Metrics[m.Name] = summary{Unit: m.Unit, Value: 100, Min: 99, Max: 101}
			}
			if w.Name == wT {
				wr.Metrics["backend.val_accuracy"] = summary{Unit: "ratio", Value: 0.8, Min: 0.8, Max: 0.8}
			}
			r.Workloads[w.Name] = wr
		}
		return r
	}
	dir := t.TempDir()
	write := func(name string, r *results) string {
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", base())
	for _, tc := range []struct {
		name   string
		change func(*results)
		want   int
	}{
		{"identical", func(*results) {}, 0},
		{"a check failed", func(r *results) { r.Workloads[wZ].Correct = false }, 1},
		{"requests failed", func(r *results) { r.Workloads[wZ].Failed = 1 }, 1},
		{"workload missing", func(r *results) { delete(r.Workloads, wS) }, 1},
		{"metric missing", func(r *results) { delete(r.Workloads[wS].Metrics, "peak_rss_mb") }, 1},
		{"nothing ran", func(r *results) { r.Workloads = nil }, 1},
		{"throughput fell", func(r *results) { r.Workloads[wT].Metrics["ops_per_s"] = summary{Value: 70, Min: 69, Max: 71} }, 1},
		{"a one-operation workload's latency is not judged twice", func(r *results) {
			r.Workloads[wT].Metrics["latency_p99_ms"] = summary{Value: 140, Min: 139, Max: 141}
		}, 0},
		{"a served request's latency is", func(r *results) {
			r.Workloads[wZ].Metrics["latency_p99_ms"] = summary{Value: 140, Min: 139, Max: 141}
		}, 1},
		{"the arithmetic changed", func(r *results) {
			r.Workloads[wT].Metrics["backend.val_accuracy"] = summary{Value: 0.79, Min: 0.79, Max: 0.79}
		}, 1},
		{"accuracy rose", func(r *results) {
			r.Workloads[wT].Metrics["backend.val_accuracy"] = summary{Value: 0.9, Min: 0.9, Max: 0.9}
		}, 0},
		{"guard under another seed", func(r *results) {
			r.Env.Seed = 2
			r.Workloads[wT].Metrics["backend.val_accuracy"] = summary{Value: 0.5, Min: 0.5, Max: 0.5}
		}, 0},
		{"guard missing", func(r *results) { delete(r.Workloads[wT].Metrics, "backend.val_accuracy") }, 1},
	} {
		r := base()
		tc.change(r)
		if got := compareFiles(io.Discard, a, write("b.json", r)); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := compareFiles(io.Discard, write("empty.json", &results{}), a); got != 2 {
		t.Errorf("empty a: exit code %d, want 2", got)
	}
}

// TestDeclaredNames keeps the Go tables and BENCHMARK.json identical and
// inside the driver's limits, so every name the command prints is
// declared and every declared name is one the command can print (the
// parent checks the other half at run time: a child may emit exactly the
// names declared for its workload).
func TestDeclaredNames(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(blob)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(blob) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(blob))
	}
	if doc.RunSeconds != runSeconds || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d in BENCHMARK.json, %d in the benchmark, limit [1,60]", doc.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark, limit 2..8", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.Name)
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	same := func(kind string, declared []metric, got []jm, limit int, bounded bool) {
		if len(got) != len(declared) || len(declared) < 1 || len(declared) > limit {
			t.Fatalf("%s: %d in BENCHMARK.json, %d in the benchmark, limit %d", kind, len(got), len(declared), limit)
		}
		for i, m := range declared {
			check(m.Name)
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, m)
			}
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the benchmark, limit (0, 0.25]", m.Name, g.Bound, m.Bound)
			case !bounded && (g.Bound != nil || m.Bound != 0):
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
			for _, w := range m.On {
				if findWorkload(w) == nil {
					t.Errorf("%s: measured on unknown workload %q", m.Name, w)
				}
			}
		}
	}
	same("end_to_end", endToEnd, doc.EndToEnd, 16, true)
	same("per_layer", perLayer, doc.PerLayer, 128, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the contract needs setup_s in s, lower is better; have %+v", endToEnd[0])
	}
	for _, m := range endToEnd {
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a wider bound than setup_s, which must have the widest", m.Name)
		}
	}
}

func TestContractLine(t *testing.T) {
	r := &workloadResult{Correct: true, Attempted: 3, Metrics: map[string]summary{}}
	for _, m := range endToEnd {
		r.Metrics[m.Name] = summary{Unit: m.Unit, Value: 1.5}
	}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(contractLine(r, false)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 3 || got.Failed != 0 || len(got.Metrics) != len(endToEnd) {
		t.Errorf("untraced line = %+v", got)
	}
	// A traced line carries every per-layer metric, 0 where the layer is
	// not on the workload's path.
	got.Metrics = nil
	if err := json.Unmarshal([]byte(contractLine(r, true)), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != len(perLayer) {
		t.Errorf("traced line has %d metrics, want %d", len(got.Metrics), len(perLayer))
	}
}
