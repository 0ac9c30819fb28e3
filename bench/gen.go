package main

import (
	"fmt"
	"math/rand"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/estimator"
	"gnnavigator/internal/model"
)

// Workload generators. Everything a workload feeds the program is a pure
// function of the -seed argument; the program under test never sees the
// seed itself except where it is the input (a run's training seed).
//
// A seed changes the random streams, never the amount of work: the
// navigator's own probe draw and the sweep's probe shapes are pinned,
// because estimator.ProbeConfigs draws samplers, batch sizes and cache
// policies whose cost differs several-fold (48 probes took 1.8 s under
// one seed and 13.3 s under another). Timing a different job per seed
// would make every comparison across seeds a comparison of workloads.

const (
	benchPlatform = "rtx4090"
	// shapeSeed pins every estimator.ProbeConfigs draw the benchmark
	// makes or causes.
	shapeSeed = 1
)

// mix derives an independent 63-bit seed from two (SplitMix64 finaliser).
func mix(a, b int64) int64 {
	z := uint64(a)*0x9e3779b97f4a7c15 + uint64(b) + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// targetSpec is the navigate workload's target graph: the ogbn-arxiv
// stand-in's shape (internal/dataset keeps its specs private, so the
// numbers are repeated here) synthesised from the workload seed.
func targetSpec(seed int64) dataset.Spec {
	return dataset.Spec{
		Name: fmt.Sprintf("bench-arxiv-%d", seed), Seed: mix(seed, 1),
		NumVertices: 6000, NumCommunities: 10, NumClasses: 10,
		AvgDegree: 13, IntraFraction: 0.65, HubBias: 0.7,
		FeatDim: 32, FeatureNoise: 1.7, DegreeNoise: 0.5, LabelFlip: 0.22,
		TrainFraction: 0.55, ValFraction: 0.2,
		FullVertices: 169_343, FullFeatDim: 128, FullAvgDegree: 13.7,
	}
}

// sweepProbes is the sweep workload's probe list: the shapes of one
// pinned ProbeConfigs draw, with every sampling core re-seeded from the
// workload seed. Probes that shared a core (and so a compiled plan)
// still share one.
func sweepProbes(seed int64, n, epochs int) []backend.Config {
	cfgs := estimator.ProbeConfigs(dataset.Reddit, model.SAGE, benchPlatform, n, shapeSeed)
	for i := range cfgs {
		cfgs[i].Seed = mix(cfgs[i].Seed, seed)
		cfgs[i].Epochs = epochs
	}
	return cfgs
}

// requestStream returns client's deterministic sequence of /predict
// vertex lists for a serve workload: 1-3 Zipf(1.3) vertices for
// serve-zipf, 64 uniform vertices for serve-scan.
func requestStream(workload string, seed int64, client, numVertices int) func() []int32 {
	rng := rand.New(rand.NewSource(mix(seed, int64(client)+1)))
	if workload == wZ {
		zipf := rand.NewZipf(rng, 1.3, 1, uint64(numVertices-1))
		return func() []int32 {
			v := make([]int32, 1+rng.Intn(3))
			for i := range v {
				v[i] = int32(zipf.Uint64())
			}
			return v
		}
	}
	return func() []int32 {
		v := make([]int32, 64)
		for i := range v {
			v[i] = rng.Int31n(int32(numVertices))
		}
		return v
	}
}
