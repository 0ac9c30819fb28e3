package cache

import (
	"math/rand"
	"testing"

	"gnnavigator/internal/gen"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/tensor"
)

// featuredGraph is testGraph with 12-dim feature rows attached.
func featuredGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := testGraph(t)
	if err := gen.AttachFeatures(rand.New(rand.NewSource(5)), g, make([]int32, g.NumVertices()), 2,
		gen.FeatureSpec{Dim: 12, Noise: 0.5}); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNewSourceResidencyOnly pins that a cached plane's accounting does
// not depend on whether rows are gathered: a plane driven timing-only
// (Access) and one driven through GatherInto report the same per-batch
// stats, hit rate and transferred bytes for every cached policy at
// float32 and int8.
func TestNewSourceResidencyOnly(t *testing.T) {
	g := featuredGraph(t)
	stream := accessStream(t, g, 24, 200, 37)
	script, err := BuildOptScript(g.NumVertices(), sliceSeq(stream))
	if err != nil {
		t.Fatal(err)
	}
	for _, prec := range []Precision{Float32, Int8} {
		for _, policy := range []Policy{Static, Freq, FIFO, LRU, Opt} {
			cfg := Config{Policy: policy, Capacity: 300, Precision: prec, Order: g.DegreeOrder(), Script: script}
			timing, err := NewSource(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			gather, err := NewSource(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			var dst *tensor.Dense
			for bi, batch := range stream {
				ts := timing.Access(batch)
				var gs BatchStats
				dst, gs = gather.GatherInto(dst, batch)
				if ts != gs {
					t.Fatalf("%s/%s batch %d: timing-only stats %+v, gathering %+v", policy, prec, bi, ts, gs)
				}
			}
			if timing.HitRate() != gather.HitRate() || timing.TransferredBytes() != gather.TransferredBytes() {
				t.Fatalf("%s/%s: hit rate %v / %v, bytes %d / %d", policy, prec,
					timing.HitRate(), gather.HitRate(), timing.TransferredBytes(), gather.TransferredBytes())
			}
			if gather.HitRate() == 0 {
				t.Fatalf("%s/%s: no hits, the stream does not exercise the cache", policy, prec)
			}
		}
	}
}

// TestNewSourceUncached pins the other branch of the switch: policy none
// and a zero capacity give the uncached source at cfg.Precision.
func TestNewSourceUncached(t *testing.T) {
	g := featuredGraph(t)
	for _, cfg := range []Config{
		{Policy: None, Capacity: 300, Precision: Int8},
		{Policy: LRU, Precision: Int8},
		{Policy: Freq, Precision: Int8, Order: []int32{}},
	} {
		src, err := NewSource(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		gs := src.(*source)
		if gs.c != nil {
			t.Fatalf("%+v: got a %s cache, want the uncached source", cfg, gs.c.policy)
		}
		if gs.rowBytes != Int8.RowBytes(g.FeatDim) {
			t.Fatalf("%+v: rows priced at %d bytes, want int8's %d", cfg, gs.rowBytes, Int8.RowBytes(g.FeatDim))
		}
	}
}

func TestGatherRowsIntoReusesBuffer(t *testing.T) {
	g := featuredGraph(t)
	nodes := make([]int32, 64)
	for i := range nodes {
		nodes[i] = int32(7 * i)
	}
	a := GatherRowsInto(nil, g, nodes)
	if a.Rows != len(nodes) || a.Cols != g.FeatDim {
		t.Fatalf("shape %dx%d", a.Rows, a.Cols)
	}
	for i, v := range nodes {
		for j, f := range g.Feature(v) {
			if a.At(i, j) != float64(f) {
				t.Fatalf("GatherRowsInto row %d col %d = %v, want %v", i, j, a.At(i, j), f)
			}
		}
	}
	// Smaller regather must reuse the same backing array.
	b := GatherRowsInto(a, g, nodes[:16])
	if &b.Data[0] != &a.Data[0] {
		t.Error("GatherRowsInto did not reuse storage for a smaller batch")
	}
	if b.Rows != 16 {
		t.Fatalf("rows = %d, want 16", b.Rows)
	}
}
