package cache

import (
	"sync"
	"testing"
)

// TestConcurrentLookupUpdateRace exercises the concurrency contract: one
// writer goroutine issuing Lookup/Update in order (the pipeline's
// producer) while other goroutines read Contains, Len, HitRate and Stats
// (diagnostics such as serving statistics). Run under -race (CI does)
// this fails loudly if any path drops an element or counter atomic.
func TestConcurrentLookupUpdateRace(t *testing.T) {
	for _, pol := range []Policy{FIFO, LRU} {
		t.Run(string(pol), func(t *testing.T) {
			c, err := New(pol, 64, vertexSpace(t, 512))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})

			// Readers: the diagnostic view.
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						c.Contains(int32((i * 7) % 512))
						c.HitRate()
						c.Len()
						c.Stats()
					}
				}(r)
			}

			// Single writer: the pipeline's producer.
			nodes := make([]int32, 32)
			for iter := 0; iter < 400; iter++ {
				for j := range nodes {
					nodes[j] = int32((iter*13 + j) % 512)
				}
				miss := c.LookupInto(nil, nodes)
				c.Update(miss)
			}
			close(stop)
			wg.Wait()

			hits, misses, updates := c.Stats()
			if hits+misses == 0 || updates == 0 {
				t.Errorf("no accounting recorded: hits=%d misses=%d updates=%d", hits, misses, updates)
			}
			if c.Len() > c.capacity {
				t.Errorf("resident %d exceeds capacity %d", c.Len(), c.capacity)
			}
		})
	}
}

// TestPolicyDynamic pins which policies mutate residency at run time:
// only those allocate an eviction ring and admit on Update.
func TestPolicyDynamic(t *testing.T) {
	if None.Dynamic() || Static.Dynamic() {
		t.Error("none/static misreported as dynamic")
	}
	if !FIFO.Dynamic() || !LRU.Dynamic() {
		t.Error("fifo/lru misreported as static")
	}
}
