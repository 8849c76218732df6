// Package core is a fixture stub of repro/internal/core: the
// ErrDeadlock type for the errtyped fixtures. The analyzer matches by
// (package name, type name), so the stub exercises the real code path.
package core

// ErrDeadlock is the shared typed deadlock error.
type ErrDeadlock struct {
	Scheduler string
	Finished  int
	Total     int
}

func (e *ErrDeadlock) Error() string { return "deadlock" }
