package graph

// Frontier is an epoch-stamped dense vertex table: O(1) membership and
// position lookup over a vertex space of known size, with O(1) reset.
// It replaces the `map[int32]int32` / `map[int32]bool` tables the batch
// assembly hot path used to rebuild per block — no hashing, and no
// clearing between rounds: a round's entries are the slots whose stamp
// equals the current epoch, so Reset just bumps the epoch and every stale
// slot becomes vacant at once.
//
// Overflow rule: the epoch counter is a uint32, so after 2^32-1 resets it
// would wrap to 0 — the value every fresh slot holds — and stale entries
// from 2^32 rounds ago would read as live. Reset detects the wrap, clears
// the stamp array once (the only O(n) reset in ~4 billion), and restarts
// at epoch 1. Growing the table likewise restarts at epoch 1 because the
// new arrays are all-zero.
//
// A Frontier is single-owner scratch: samplers embed one, and the
// pipeline engine calls a run's sampler from one goroutine (the caller's
// or its one producer), so no locking is needed. The zero value is ready
// to use.
type Frontier struct {
	pos   []int32
	stamp []uint32
	epoch uint32
}

// Reset prepares the table for a new round over vertex ids in [0, n).
// Entries from previous rounds become vacant; no memory is written unless
// the table must grow or the epoch counter wraps.
func (f *Frontier) Reset(n int) {
	if len(f.stamp) < n {
		f.stamp = make([]uint32, n)
		f.pos = make([]int32, n)
		f.epoch = 0
	}
	f.epoch++
	if f.epoch == 0 { // uint32 wrap: clear once, restart
		clear(f.stamp)
		f.epoch = 1
	}
}

// Has reports whether v was inserted since the last Reset.
func (f *Frontier) Has(v int32) bool { return f.stamp[v] == f.epoch }

// Pos returns v's stored value and whether v is present this round.
func (f *Frontier) Pos(v int32) (int32, bool) {
	if f.stamp[v] == f.epoch {
		return f.pos[v], true
	}
	return 0, false
}

// Set inserts v with value p (overwriting any value from this round).
func (f *Frontier) Set(v, p int32) {
	f.stamp[v] = f.epoch
	f.pos[v] = p
}

// PosOrInsert returns v's stored value when v is live this round;
// otherwise it inserts v with value next and reports false. The fused
// form saves the second table walk on the miss path of dedup/remap
// loops, which run once per sampled edge.
func (f *Frontier) PosOrInsert(v, next int32) (int32, bool) {
	if f.stamp[v] == f.epoch {
		return f.pos[v], true
	}
	f.stamp[v] = f.epoch
	f.pos[v] = next
	return next, false
}
