package graph

import "testing"

func TestFrontierBasics(t *testing.T) {
	var f Frontier
	f.Reset(10)
	if f.Has(3) {
		t.Fatal("fresh table reports membership")
	}
	f.Set(3, 7)
	if !f.Has(3) {
		t.Fatal("Set did not insert")
	}
	if p, ok := f.Pos(3); !ok || p != 7 {
		t.Fatalf("Pos(3) = %d,%v want 7,true", p, ok)
	}
	if _, ok := f.Pos(4); ok {
		t.Fatal("Pos reports an absent vertex")
	}
	f.Set(3, 9) // overwrite within a round
	if p, _ := f.Pos(3); p != 9 {
		t.Fatalf("overwrite: Pos(3) = %d want 9", p)
	}
	f.Reset(10)
	if f.Has(3) {
		t.Fatal("Reset did not vacate previous round's entries")
	}
}

func TestFrontierGrowAndShrinkRequests(t *testing.T) {
	var f Frontier
	f.Reset(4)
	f.Set(2, 1)
	f.Reset(100) // grow: fresh arrays, nothing live
	for v := int32(0); v < 100; v++ {
		if f.Has(v) {
			t.Fatalf("vertex %d live after grow", v)
		}
	}
	f.Set(99, 5)
	f.Reset(4) // smaller n keeps the bigger table
	if f.Has(99) {
		t.Fatal("entry survived Reset")
	}
}

// TestFrontierStampOverflow exercises the wrap rule: after 2^32-1 resets
// the epoch counter would collide with the zero value of fresh slots, so
// Reset must clear the stamps once and restart at epoch 1.
func TestFrontierStampOverflow(t *testing.T) {
	var f Frontier
	f.Reset(8)
	f.Set(5, 1)
	f.epoch = ^uint32(0) // as if 2^32-1 rounds had passed; slot 5 stamp is 1
	f.stamp[5] = f.epoch // make slot 5 live in the pre-wrap round
	f.Reset(8)
	if f.epoch != 1 {
		t.Fatalf("post-wrap epoch = %d, want 1", f.epoch)
	}
	for v := int32(0); v < 8; v++ {
		if f.Has(v) {
			t.Fatalf("vertex %d live after stamp overflow reset", v)
		}
	}
	f.Set(2, 3)
	if p, ok := f.Pos(2); !ok || p != 3 {
		t.Fatal("table unusable after overflow reset")
	}
}
