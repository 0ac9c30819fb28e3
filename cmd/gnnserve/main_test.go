package main

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/gen"
	"gnnavigator/internal/graph"
)

func servedGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(rand.New(rand.NewSource(3)), 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.AttachFeatures(rand.New(rand.NewSource(5)), g, make([]int32, g.NumVertices()), 2,
		gen.FeatureSpec{Dim: 12, Noise: 0.5}); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBuildSourceUncachedKeepsPrecision pins that an uncached plane still
// serves rows at -precision, both for policy none and for a ratio that
// rounds to zero rows: every gathered row is the int8 round trip of the
// host row, exactly what an int8 cache would serve, and the transfer is
// priced at int8 width.
func TestBuildSourceUncachedKeepsPrecision(t *testing.T) {
	g := servedGraph(t)
	nodes := []int32{3, 1, 4, 159, 26}
	for _, tc := range []struct {
		policy cache.Policy
		ratio  float64
	}{{cache.None, 0.1}, {cache.LRU, 0}} {
		src, _, err := buildSource(g, tc.policy, tc.ratio, cache.Int8)
		if err != nil {
			t.Fatalf("%s@%v: %v", tc.policy, tc.ratio, err)
		}
		feats, st := src.GatherInto(nil, nodes)
		want := make([]float64, g.FeatDim)
		for i, v := range nodes {
			cache.Int8.WidenRow(want, g.Feature(v))
			for j, w := range want {
				if feats.At(i, j) != w {
					t.Fatalf("%s@%v: row %d col %d = %v, want int8 round trip %v", tc.policy, tc.ratio, i, j, feats.At(i, j), w)
				}
			}
		}
		if want := int64(len(nodes)) * cache.Int8.RowBytes(g.FeatDim); st.TransferBytes != want || src.TransferredBytes() != want {
			t.Fatalf("%s@%v: transferred %d (batch %d), want %d", tc.policy, tc.ratio, src.TransferredBytes(), st.TransferBytes, want)
		}
		if src.HitRate() != 0 {
			t.Fatalf("%s@%v: uncached plane hit rate %v", tc.policy, tc.ratio, src.HitRate())
		}
	}
}

// TestBuildSourceRejectsPlanPolicies pins that policies serving cannot
// build are refused up front, in words a user of the flags can act on.
func TestBuildSourceRejectsPlanPolicies(t *testing.T) {
	g := servedGraph(t)
	goIdent := regexp.MustCompile(`[a-z][A-Z]|[A-Z][a-z]+[A-Z]|\(\)`)
	for _, tc := range []struct {
		policy cache.Policy
		want   string
	}{
		{cache.Freq, "serving has none"},
		{cache.Opt, "serving has none"},
		{"bogus", "unknown cache policy"},
	} {
		src, _, err := buildSource(g, tc.policy, 0.1, cache.Float32)
		if err == nil {
			t.Fatalf("%s accepted (source %T)", tc.policy, src)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not say %q", tc.policy, err, tc.want)
		}
		if id := goIdent.FindString(err.Error()); id != "" {
			t.Errorf("%s: error %q names a Go identifier", tc.policy, err)
		}
	}
}

// TestBuildSourceLRUIsCached pins the default serving plane: an LRU at
// ratio 0.1 holds rows, so a repeated batch hits.
func TestBuildSourceLRUIsCached(t *testing.T) {
	g := servedGraph(t)
	src, desc, err := buildSource(g, cache.LRU, 0.1, cache.Float32)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(desc, "lru cache, 50 rows") {
		t.Errorf("description %q", desc)
	}
	nodes := []int32{7, 8, 9}
	src.GatherInto(nil, nodes)
	if _, st := src.GatherInto(nil, nodes); st.Miss != 0 {
		t.Fatalf("repeated batch missed %d rows", st.Miss)
	}
	for _, v := range nodes {
		if !src.Resident(v) {
			t.Errorf("vertex %d not resident", v)
		}
	}
}

// TestCheckFlagsRejectsNegativeProcs pins that a negative -procs stops
// the server at startup, naming the flag, instead of silently running
// at the default worker count.
func TestCheckFlagsRejectsNegativeProcs(t *testing.T) {
	err := checkFlags("m.gnav", -1)
	if err == nil || !strings.Contains(err.Error(), "-procs -1") {
		t.Fatalf("-procs -1: error %v, want one naming -procs -1", err)
	}
	for _, procs := range []int{0, 1, 4} {
		if err := checkFlags("m.gnav", procs); err != nil {
			t.Errorf("-procs %d refused: %v", procs, err)
		}
	}
	if err := checkFlags("", 0); err == nil || !strings.Contains(err.Error(), "-model") {
		t.Errorf("missing -model: error %v", err)
	}
}
