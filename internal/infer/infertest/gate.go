// Package infertest holds test helpers for code that sits on top of
// infer.Engine.
package infertest

import (
	"math/rand"
	"sync"

	"gnnavigator/internal/graph"
	"gnnavigator/internal/sample"
)

// Gate wraps a sampler so a test can hold one engine run in flight for
// as long as it needs — a stalled engine without a clock. Everything a
// coalescer does "while the engine is busy" can then be set up step by
// step and observed before the run is let go.
type Gate struct {
	sample.Sampler

	mu      sync.Mutex
	entered chan struct{} // non-nil while armed
	release chan struct{}
}

// NewGate wraps s; until StallNext is called it behaves exactly like s.
func NewGate(s sample.Sampler) *Gate { return &Gate{Sampler: s} }

// StallNext arms the gate for the next Sample call: that call closes
// entered when it arrives and then blocks until release is called.
func (g *Gate) StallNext() (entered <-chan struct{}, release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.entered, g.release = make(chan struct{}), make(chan struct{})
	rel := g.release
	return g.entered, sync.OnceFunc(func() { close(rel) })
}

// Sample implements sample.Sampler.
func (g *Gate) Sample(rng *rand.Rand, gr *graph.Graph, targets []int32) *sample.MiniBatch {
	g.mu.Lock()
	entered, release := g.entered, g.release
	g.entered, g.release = nil, nil
	g.mu.Unlock()
	if entered != nil {
		close(entered)
		<-release
	}
	return g.Sampler.Sample(rng, gr, targets)
}
