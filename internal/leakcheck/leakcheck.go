// Package leakcheck is the test helper that decides whether a call left
// goroutines behind. It identifies them by stack frame, not by count:
// the tensor pool's workers are resident by design and spawned lazily,
// so runtime.NumGoroutine before/after a call says nothing about leaks
// above one core — a goroutine is a leak only if a frame of the code
// under test is still on (or created) its stack.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Frames that mark this repo's short-lived goroutines. Each is matched
// as a substring of a goroutine's stack dump, which includes its
// "created by" line.
const (
	// PipelineProducer matches the producer goroutine of pipeline.Run's
	// async path.
	PipelineProducer = "gnnavigator/internal/pipeline.runAsync"
	// FanOutTask matches tensor.ForEachIndex task goroutines (not the
	// resident pool workers, which tensor.ensureWorkers creates).
	FanOutTask = "gnnavigator/internal/tensor.ForEachIndex"
	// Dispatcher matches the coalescer's dispatcher goroutine.
	Dispatcher = "gnnavigator/internal/infer.(*Coalescer).dispatch"
	// ServeHandler matches HTTP handlers still inside internal/serve.
	ServeHandler = "gnnavigator/internal/serve.(*Server).handle"
)

// wait is how long Check lets exiting goroutines finish unwinding.
const wait = 5 * time.Second

// Check fails t if, after a grace period, any goroutine other than the
// caller's still has one of frames on its stack. Call it after the
// function under test has returned (or its owner has been closed).
func Check(t testing.TB, frames ...string) {
	t.Helper()
	deadline := time.Now().Add(wait)
	for {
		leaked := matching(frames)
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) leaked:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// matching returns the stack dumps of all goroutines except the calling
// one that contain any of frames.
func matching(frames []string) []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// The dump is one blank-line-separated block per goroutine, the
	// calling goroutine first.
	blocks := strings.Split(strings.TrimSpace(string(buf)), "\n\n")
	var out []string
	for _, g := range blocks[1:] {
		for _, f := range frames {
			if strings.Contains(g, f) {
				out = append(out, g)
				break
			}
		}
	}
	return out
}
