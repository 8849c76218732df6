// Package leakcheck is the runtime half of goroutine hygiene: a test
// binary whose tests pass but leave one of this module's goroutines
// running fails. A package whose production code starts goroutines
// installs it with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// A goroutine counts if any frame of its stack is a function of module
// repro. There is no allowlist: a goroutine the tests leave behind is
// fixed where it is started or where the test abandons it.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settle bounds the wait for goroutines that are already on their way
// out when the tests return. Under -race the service tests' slowest
// such goroutines (an abandoned 200,000-node evaluation, Drain's
// WaitGroup watcher) need about a second; 30 s keeps that far from the
// bound on a loaded machine, and a passing run never waits it out.
const settle = 30 * time.Second

// Main runs the tests and, if they pass, waits up to settle for every
// goroutine with a repro/ frame, other than the caller's, to exit. It
// prints the stacks of any still running and exits 1; otherwise it
// exits with the tests' status.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := wait(settle); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines still running %v after the tests passed:\n\n%s\n",
				len(leaked), settle, strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// wait polls until no other goroutine has a repro/ frame or bound
// passes, and returns the stacks of those still running.
func wait(bound time.Duration) []string {
	deadline := time.Now().Add(bound)
	for pause := time.Millisecond; ; pause = min(2*pause, 100*time.Millisecond) {
		leaked := running()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(pause)
	}
}

// running returns the stack of every goroutine but the caller's that
// has a repro/ frame. runtime.Stack lists the caller's goroutine first
// and separates goroutines by a blank line; a function frame starts
// its line, so "\nrepro/" matches frames and not source paths.
func running() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var leaked []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if strings.Contains(g, "\nrepro/") {
			leaked = append(leaked, g)
		}
	}
	return leaked
}
