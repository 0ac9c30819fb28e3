package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gnnavigator/internal/hw"
)

func workload() Workload {
	return Workload{VertexScale: 30, FeatDim: 602, BytesPerScalar: 4}
}

func volumes() BatchVolumes {
	return BatchVolumes{
		SampledVertices:  8000,
		TargetVertices:   1024,
		InputVertices:    8000,
		MissVertices:     3000,
		CacheUpdateOps:   0,
		SampledEdges:     20000,
		FLOPs:            5e7,
		FeatureFLOPShare: 0.5,
		ScaledFeatDim:    48,
		Layers:           2,
	}
}

func TestWorkloadValidate(t *testing.T) {
	if err := workload().Validate(); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}
	bad := workload()
	bad.FeatDim = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestPlatformProfilesValid(t *testing.T) {
	for _, name := range hw.ProfileNames() {
		p, _ := hw.Profile(name)
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", name, err)
		}
	}
}

func TestEstimateBatchComponentsPositive(t *testing.T) {
	tm := EstimateBatch(volumes(), hw.RTX4090(), workload())
	if tm.TSample <= 0 || tm.TTransfer <= 0 || tm.TCompute <= 0 {
		t.Errorf("non-positive component: %+v", tm)
	}
	if tm.TReplace != 0 {
		t.Errorf("TReplace = %v, want 0 with no cache updates", tm.TReplace)
	}
	v := volumes()
	v.CacheUpdateOps = 2000
	tm2 := EstimateBatch(v, hw.RTX4090(), workload())
	if tm2.TReplace <= 0 {
		t.Error("TReplace = 0 despite cache updates")
	}
}

func TestMissesDriveTransfer(t *testing.T) {
	v := volumes()
	p := hw.RTX4090()
	w := workload()
	high := EstimateBatch(v, p, w)
	v.MissVertices = 100
	low := EstimateBatch(v, p, w)
	if low.TTransfer >= high.TTransfer {
		t.Errorf("fewer misses did not reduce transfer: %v vs %v", low.TTransfer, high.TTransfer)
	}
}

func TestCriticalIsMax(t *testing.T) {
	b := BatchTiming{TSample: 1, TTransfer: 2, TReplace: 0.5, TCompute: 1}
	if b.Critical() != 3 {
		t.Errorf("Critical = %v, want 3 (host side)", b.Critical())
	}
	if b.Total() != 4.5 {
		t.Errorf("Total = %v, want 4.5", b.Total())
	}
	b2 := BatchTiming{TSample: 0.1, TTransfer: 0.1, TReplace: 1, TCompute: 3}
	if b2.Critical() != 4 {
		t.Errorf("Critical = %v, want 4 (device side)", b2.Critical())
	}
}

func TestEpochTimePipelinedLower(t *testing.T) {
	batches := []BatchTiming{
		{TSample: 1, TTransfer: 1, TCompute: 1.5},
		{TSample: 0.5, TTransfer: 0.5, TCompute: 2},
	}
	pip := EpochTime(batches)
	ser := EpochTimeUnpipelined(batches)
	if pip >= ser {
		t.Errorf("pipelined %v >= serial %v", pip, ser)
	}
	// Batch 1: max(1+1, 1.5) = 2; batch 2: max(0.5+0.5, 2) = 2.
	if pip != 4 {
		t.Errorf("pipelined = %v, want 4", pip)
	}
}

func TestFasterDeviceReducesCompute(t *testing.T) {
	v := volumes()
	w := workload()
	slow := EstimateBatch(v, hw.M90(), w)
	fast := EstimateBatch(v, hw.A100(), w)
	if fast.TCompute >= slow.TCompute {
		t.Errorf("A100 compute %v >= M90 %v", fast.TCompute, slow.TCompute)
	}
}

func TestFeatureDimRescaling(t *testing.T) {
	v := volumes()
	p := hw.RTX4090()
	small := workload()
	small.FeatDim = 48 // same as scaled: no rescale
	big := workload()  // 602
	tSmall := EstimateBatch(v, p, small)
	tBig := EstimateBatch(v, p, big)
	if tBig.TCompute <= tSmall.TCompute {
		t.Errorf("larger full feature dim did not increase compute: %v vs %v",
			tBig.TCompute, tSmall.TCompute)
	}
}

func TestEstimateMemoryBreakdown(t *testing.T) {
	w := workload()
	m := EstimateMemory(MemoryVolumes{
		ModelParams:       100_000,
		CacheVertices:     50_000,
		PeakBatchVertices: 8000,
		HiddenDims:        64,
		Layers:            2,
	}, w)
	if m.Model <= 0 || m.Cache <= 0 || m.Runtime <= 0 {
		t.Errorf("non-positive memory component: %+v", m)
	}
	wantModel := 100_000.0 * 4 * 4
	if m.Model != wantModel {
		t.Errorf("Model = %v, want %v", m.Model, wantModel)
	}
	wantCache := 50_000.0 * 602 * 4
	if m.Cache != wantCache {
		t.Errorf("Cache = %v, want %v", m.Cache, wantCache)
	}
	if m.Total() != m.Model+m.Cache+m.Runtime {
		t.Error("Total != sum of parts")
	}
}

func TestZeroCacheHasNoCacheMemory(t *testing.T) {
	m := EstimateMemory(MemoryVolumes{ModelParams: 10, PeakBatchVertices: 10, HiddenDims: 8}, workload())
	if m.Cache != 0 {
		t.Errorf("Cache = %v, want 0", m.Cache)
	}
}

func TestFitsDevice(t *testing.T) {
	p := hw.M90() // 8 GiB
	small := MemoryBreakdown{Model: 1e6, Cache: 1e6, Runtime: 1e6}
	if !FitsDevice(small, p, 0.05) {
		t.Error("3 MB reported as not fitting 8 GiB")
	}
	huge := MemoryBreakdown{Cache: 16 * hw.GiB}
	if FitsDevice(huge, p, 0.05) {
		t.Error("16 GiB reported as fitting 8 GiB")
	}
}

// Property: every timing component is non-negative and monotone in vertex
// scale.
func TestTimingMonotoneInScaleProperty(t *testing.T) {
	p := hw.RTX4090()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := BatchVolumes{
			SampledVertices:  100 + rng.Intn(10000),
			TargetVertices:   1 + rng.Intn(1000),
			InputVertices:    100 + rng.Intn(10000),
			MissVertices:     rng.Intn(5000),
			CacheUpdateOps:   rng.Intn(3000),
			SampledEdges:     100 + rng.Intn(50000),
			FLOPs:            1e5 + rng.Float64()*1e8,
			FeatureFLOPShare: rng.Float64(),
			ScaledFeatDim:    16 + rng.Intn(64),
			Layers:           1 + rng.Intn(3),
		}
		w1 := Workload{VertexScale: 1 + rng.Float64()*10, FeatDim: 64 + rng.Intn(600), BytesPerScalar: 4}
		w2 := w1
		w2.VertexScale *= 2
		t1 := EstimateBatch(v, p, w1)
		t2 := EstimateBatch(v, p, w2)
		if t1.TSample < 0 || t1.TTransfer < 0 || t1.TReplace < 0 || t1.TCompute < 0 {
			return false
		}
		return t2.TSample >= t1.TSample && t2.TTransfer >= t1.TTransfer &&
			t2.TReplace >= t1.TReplace && t2.TCompute >= t1.TCompute &&
			t2.Critical() >= t1.Critical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: memory total is monotone in every volume knob.
func TestMemoryMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := Workload{VertexScale: 1 + rng.Float64()*20, FeatDim: 32 + rng.Intn(600), BytesPerScalar: 4}
		base := MemoryVolumes{
			ModelParams:       1000 + rng.Intn(100000),
			CacheVertices:     float64(rng.Intn(100000)),
			PeakBatchVertices: 100 + rng.Intn(10000),
			HiddenDims:        16 + rng.Intn(256),
			Layers:            1 + rng.Intn(4),
		}
		m0 := EstimateMemory(base, w).Total()
		up := base
		up.ModelParams *= 2
		if EstimateMemory(up, w).Total() < m0 {
			return false
		}
		up = base
		up.CacheVertices += 1000
		if EstimateMemory(up, w).Total() <= m0 {
			return false
		}
		up = base
		up.PeakBatchVertices *= 2
		return EstimateMemory(up, w).Total() > m0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWithMemoryCapsCache(t *testing.T) {
	p := hw.RTX4090().WithMemory(2 * hw.GiB)
	if p.Device.MemCapacityBytes != 2*hw.GiB {
		t.Errorf("WithMemory = %v", p.Device.MemCapacityBytes)
	}
}

// TestMultiDeviceTiming checks the K-device pricing: partitionable terms
// split by K, sampling stays whole, and the halo/all-reduce terms match
// the hand formulas.
func TestMultiDeviceTiming(t *testing.T) {
	p := hw.A100().WithDevices(4, hw.NVLink())
	v := volumes()
	v.HaloBytes = 1.5e6
	v.AllReduceBytes = 8e6

	w1 := workload()
	single := EstimateBatch(v, p, w1)
	w4 := workload()
	w4.Devices = 4
	multi := EstimateBatch(v, p, w4)

	if multi.TSample != single.TSample {
		t.Errorf("TSample changed with K: %v vs %v (sampling is shared host work)", multi.TSample, single.TSample)
	}
	// Transfer: bytes/K over the link plus the unchanged latency.
	wantTransfer := (single.TTransfer-p.Link.LatencySec)/4 + p.Link.LatencySec
	if !close(multi.TTransfer, wantTransfer) {
		t.Errorf("TTransfer = %v, want %v", multi.TTransfer, wantTransfer)
	}
	if multi.TCompute >= single.TCompute {
		t.Errorf("TCompute not reduced by K: %v vs %v", multi.TCompute, single.TCompute)
	}
	// Halo: rescale measured bytes to paper width, split across K
	// parallel exchanges.
	haloRows := v.HaloBytes / float64(w4.Precision.RowBytes(v.ScaledFeatDim))
	haloBytes := haloRows * w4.VertexScale * float64(w4.FeatDim) * 4
	wantHalo := haloBytes/4/p.Interconnect.BytesPerSec + p.Interconnect.LatencySec
	if !close(multi.THalo, wantHalo) {
		t.Errorf("THalo = %v, want %v", multi.THalo, wantHalo)
	}
	// All-reduce: ring factor 2(K-1)/K on bytes, 2(K-1) latency steps.
	wantAR := 2*3.0/4*v.AllReduceBytes/p.Interconnect.BytesPerSec + 6*p.Interconnect.LatencySec
	if !close(multi.TAllReduce, wantAR) {
		t.Errorf("TAllReduce = %v, want %v", multi.TAllReduce, wantAR)
	}
	// The comm terms sit on the right pipeline sides.
	if got := multi.HostSide(); !close(got, multi.TSample+multi.TTransfer+multi.THalo) {
		t.Errorf("HostSide = %v missing THalo", got)
	}
	if got := multi.DeviceSide(); !close(got, multi.TReplace+multi.TCompute+multi.TAllReduce) {
		t.Errorf("DeviceSide = %v missing TAllReduce", got)
	}
}

// TestSingleDeviceTimingUnchanged pins the K<=1 paths bitwise: Devices 0
// and 1 price identically, comm volumes are ignored without a second
// device, and comm terms are zero.
func TestSingleDeviceTimingUnchanged(t *testing.T) {
	p := hw.A100()
	v := volumes()
	base := EstimateBatch(v, p, workload())
	v.HaloBytes = 1e6
	v.AllReduceBytes = 1e6
	for _, k := range []int{0, 1} {
		w := workload()
		w.Devices = k
		got := EstimateBatch(v, p, w)
		if got != base {
			t.Errorf("Devices=%d timing %+v != base %+v", k, got, base)
		}
	}
	if base.THalo != 0 || base.TAllReduce != 0 {
		t.Errorf("single-device comm terms nonzero: %+v", base)
	}
}

// TestMultiDeviceMemory checks the per-device breakdown: model
// replicated, cache and runtime sharded by K.
func TestMultiDeviceMemory(t *testing.T) {
	v := MemoryVolumes{
		ModelParams: 1e6, CacheVertices: 5e5, PeakBatchVertices: 9000,
		PeakBatchEdges: 30000, HiddenDims: 96, MaxWidth: 64, Layers: 2,
	}
	w1 := workload()
	single := EstimateMemory(v, w1)
	w4 := workload()
	w4.Devices = 4
	multi := EstimateMemory(v, w4)
	if multi.Model != single.Model {
		t.Errorf("model memory changed with K: %v vs %v (replicated)", multi.Model, single.Model)
	}
	if !close(multi.Cache, single.Cache/4) {
		t.Errorf("cache shard = %v, want %v", multi.Cache, single.Cache/4)
	}
	const overhead = 64 * 1024 * 1024
	if !close(multi.Runtime-overhead, (single.Runtime-overhead)/4) {
		t.Errorf("runtime shard = %v, want %v", multi.Runtime-overhead, (single.Runtime-overhead)/4)
	}
	if multi.Total() >= single.Total() {
		t.Error("K devices did not relieve per-device memory")
	}
}

func TestWorkloadValidateDevices(t *testing.T) {
	w := workload()
	w.Devices = -1
	if err := w.Validate(); err == nil {
		t.Error("negative device count accepted")
	}
	w.Devices = 4
	if err := w.Validate(); err != nil {
		t.Errorf("4-device workload rejected: %v", err)
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12*(1+abs(a)+abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
