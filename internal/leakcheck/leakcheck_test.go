package leakcheck

import "testing"

func parked(started chan<- struct{}, release <-chan struct{}) {
	close(started)
	<-release
}

// viaNamedFrame puts a frame of its own on the calling goroutine's stack.
func viaNamedFrame(frames []string) []string { return matching(frames) }

// TestMatchingFindsByFrame: a goroutine parked under a named frame is
// reported while it lives and gone once it exits; the caller itself is
// never reported, whatever is on its stack.
func TestMatchingFindsByFrame(t *testing.T) {
	const frame = "gnnavigator/internal/leakcheck.parked"
	started, release := make(chan struct{}), make(chan struct{})
	go parked(started, release)
	<-started
	if got := matching([]string{frame}); len(got) != 1 {
		t.Fatalf("parked goroutine: %d matches, want 1", len(got))
	}
	if got := viaNamedFrame([]string{"leakcheck.viaNamedFrame"}); len(got) != 0 {
		t.Fatalf("the calling goroutine was reported as a leak:\n%s", got[0])
	}
	close(release)
	Check(t, frame)
}
