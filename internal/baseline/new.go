package baseline

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/tree"
)

// Names lists the three compared heuristics in paper order: the two
// competitors of §3 and the paper's MemBooking. It is the one place the
// set is spelled out; New builds each of them.
var Names = []string{"Activation", "MemBookingRedTree", "MemBooking"}

// ErrUnknown is wrapped by New for a name outside Names.
var ErrUnknown = errors.New("unknown heuristic")

// Scheduler is a core.Scheduler that can be rebound to another memory
// bound and re-run without rebuilding its per-tree state.
type Scheduler interface {
	core.Scheduler
	Reset(m float64) error
}

// New builds the named heuristic for t under bound m and returns it with
// the tree it must be executed on: the reduction transform for
// MemBookingRedTree (t's nodes first, fictitious leaves after), t itself
// otherwise.
func New(name string, t *tree.Tree, m float64, ao, eo *order.Order) (Scheduler, *tree.Tree, error) {
	switch name {
	case "Activation":
		s, err := NewActivation(t, m, ao, eo)
		if err != nil {
			return nil, nil, err
		}
		return s, t, nil
	case "MemBookingRedTree":
		s, err := NewMemBookingRedTree(t, m, ao, eo)
		if err != nil {
			return nil, nil, err
		}
		return s, s.Tree(), nil
	case "MemBooking":
		s, err := core.NewMemBooking(t, m, ao, eo)
		if err != nil {
			return nil, nil, err
		}
		return s, t, nil
	}
	return nil, nil, fmt.Errorf("%w %q", ErrUnknown, name)
}
