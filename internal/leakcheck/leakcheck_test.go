package leakcheck

import (
	"strings"
	"testing"
	"time"
)

// parked blocks until release closes: a goroutine of this module that
// is still running.
func parked(started chan<- struct{}, release <-chan struct{}) {
	close(started)
	<-release
}

func TestParkedGoroutineReportedByName(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	go parked(started, release)
	<-started
	leaked := wait(50 * time.Millisecond)
	close(release)
	if len(leaked) != 1 || !strings.Contains(leaked[0], "repro/internal/leakcheck.parked(") {
		t.Fatalf("want one stack naming leakcheck.parked, got %d:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
	if leaked := wait(5 * time.Second); len(leaked) != 0 {
		t.Fatalf("released goroutine still reported:\n%s", strings.Join(leaked, "\n\n"))
	}
}

// The caller's own stack is in this module (this test function), yet a
// check with no other goroutine of the module running finds nothing.
func TestCallerNotReported(t *testing.T) {
	if leaked := running(); len(leaked) != 0 {
		t.Fatalf("want no goroutines, got:\n%s", strings.Join(leaked, "\n\n"))
	}
}
