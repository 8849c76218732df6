package core

import "fmt"

// ErrDeadlock is returned by an execution engine — the discrete-event
// simulator (internal/sim, rigid and moldable schedulers alike), the
// distributed engine (internal/distributed), the cluster simulator
// (internal/multitree) or the live executor (internal/executor) — when
// the scheduler can make no progress: no task is running (and,
// distributed, nothing is in flight) and none can be launched, yet the
// tree is unfinished. Activation and MemBookingRedTree hit it when the
// memory bound is too small; MemBooking never does while M ≥ peak(AO)
// (Theorem 1). It lives here, next to the Scheduler interface, as the
// one deadlock type: there are no per-package aliases, each engine
// constructs it at a single site, and callers match any engine's
// deadlock with errors.As on *core.ErrDeadlock.
type ErrDeadlock struct {
	Scheduler string
	Finished  int
	Total     int
	Booked    float64
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("%s deadlocked after %d/%d tasks (booked %g)",
		e.Scheduler, e.Finished, e.Total, e.Booked)
}
