package dse

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// goldenParetoFrontDigest is the FNV-64a digest of the fronts
// TestGoldenParetoFront computes. It was recorded while the all-pairs
// quadratic front still existed and the sort-and-sweep was proved equal
// to it on these point sets.
const goldenParetoFrontDigest = "0753eafbc88a9e4c"

// paretoPointSets draws the random point sets the front is pinned on:
// coordinates from coarse grids of 2, 4 and 16 levels, so ties, the
// delicate part of the sweep, occur constantly, then two continuous
// sets where ties occur only at duplicates. Each point's Cfg.BatchSize
// is its input index.
func paretoPointSets() [][]Point {
	rng := rand.New(rand.NewSource(99))
	grid := func(levels int) float64 {
		return float64(rng.Intn(levels)) / float64(levels-1)
	}
	var sets [][]Point
	for _, n := range []int{0, 1, 2, 3, 5, 17, 100, 400} {
		for _, levels := range []int{2, 4, 16} {
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = mkPt(grid(levels), grid(levels), grid(levels))
				pts[i].Cfg.BatchSize = i
			}
			sets = append(sets, pts)
		}
	}
	for _, n := range []int{50, 333} {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = mkPt(rng.Float64(), rng.Float64(), rng.Float64())
			pts[i].Cfg.BatchSize = i
		}
		sets = append(sets, pts)
	}
	return sets
}

// TestGoldenParetoFront pins the input indices of ParetoFront's output
// on every paretoPointSets set.
func TestGoldenParetoFront(t *testing.T) {
	h := fnv.New64a()
	for _, pts := range paretoPointSets() {
		front := ParetoFront(pts)
		idx := make([]int, len(front))
		for i, p := range front {
			idx[i] = p.Cfg.BatchSize
		}
		fmt.Fprintf(h, "%d %v\n", len(pts), idx)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenParetoFrontDigest {
		t.Fatalf("digest %s, want %s", got, goldenParetoFrontDigest)
	}
}
