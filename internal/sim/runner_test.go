package sim_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/tree"
)

// script is a scheduler that launches fixed lists, its k-th Select
// returning steps[k], and records every OnFinish batch.
type script struct {
	steps   [][]tree.NodeID
	calls   int
	batches [][]tree.NodeID
}

func (s *script) Name() string          { return "script" }
func (s *script) Init() error           { return nil }
func (s *script) BookedMemory() float64 { return 0 }
func (s *script) OnFinish(batch []tree.NodeID) {
	s.batches = append(s.batches, slices.Clone(batch))
}
func (s *script) Select(int) []tree.NodeID {
	if s.calls == len(s.steps) {
		return nil
	}
	s.calls++
	return s.steps[s.calls-1]
}

// scriptTree is a root over four leaves; leaf 4 takes no time.
var scriptTree = tree.MustNew([]tree.NodeID{tree.None, 0, 0, 0, 0}, nil, nil, []float64{1, 2, 1, 2, 0})

// overSelect launches leaves 1 and 2 on three processors, then three
// tasks at t=1, when two are free. Leaf 1 still runs.
func overSelect(t *testing.T, r *sim.Runner) *script {
	t.Helper()
	s := &script{steps: [][]tree.NodeID{{1, 2}, {3, 4, 0}, {0}}}
	if _, err := r.Run(scriptTree, 3, s, nil); err == nil || !strings.Contains(err.Error(), "over-selected") {
		t.Fatalf("Run = %v, want an over-selection error", err)
	}
	return s
}

// The run stops at the instant of the over-selection: no later
// completion reaches the scheduler and it is asked for nothing more.
func TestRunnerStopsAtOverSelection(t *testing.T) {
	var r sim.Runner
	s := overSelect(t, &r)
	if want := [][]tree.NodeID{{2}}; s.calls != 2 || !reflect.DeepEqual(s.batches, want) {
		t.Fatalf("%d Selects, batches %v; want 2 and %v", s.calls, s.batches, want)
	}
}

// One opening Select at t=0, then one OnFinish per instant with its whole
// batch in launch order; a task launched with zero duration completes in
// a later batch at the same time. A Runner whose last run stopped with a
// task still running starts the next with an empty queue.
func TestRunnerBatchesByInstant(t *testing.T) {
	var r sim.Runner
	overSelect(t, &r)
	s := &script{steps: [][]tree.NodeID{{1, 2, 3}, {4}, nil, {0}}}
	tr := &sim.Trace{}
	res, err := r.Run(scriptTree, 3, s, &sim.Options{Trace: tr})
	if err != nil || res.Makespan != 3 {
		t.Fatalf("Run = (%+v, %v), want makespan 3", res, err)
	}
	if want := [][]tree.NodeID{{2}, {4}, {1, 3}, {0}}; !reflect.DeepEqual(s.batches, want) {
		t.Fatalf("batches %v, want %v", s.batches, want)
	}
	var at []float64
	for _, m := range tr.Mem {
		at = append(at, m.Time)
	}
	if want := []float64{0, 1, 1, 2, 3}; !reflect.DeepEqual(at, want) {
		t.Fatalf("instants %v, want %v", at, want)
	}
}
