package repro_test

import (
	"errors"
	"fmt"

	"repro"
)

// The basic flow: build a tree, pick the safe activation order, schedule
// under the minimum possible memory.
func Example() {
	b := repro.NewTreeBuilder(3)
	root := b.AddRoot(1, 4, 2) // n=1, f=4, t=2
	b.Add(root, 0, 3, 1)
	b.Add(root, 0, 2, 1)
	t, _ := b.Build()

	ao, minMem := repro.MinMemPostOrder(t)
	s, _ := repro.NewMemBooking(t, minMem, ao, ao)
	res, _ := repro.Simulate(t, 2, s, minMem)
	fmt.Printf("makespan %.0f with memory %.0f\n", res.Makespan, minMem)
	// Output: makespan 3 with memory 10
}

// OptSeq can beat any postorder; it never loses to memPO.
func ExampleOptSeq() {
	t, _ := repro.SyntheticTree(1, 100)
	_, poPeak := repro.MinMemPostOrder(t)
	_, optPeak := repro.OptSeq(t)
	fmt.Println(optPeak <= poPeak)
	// Output: true
}

// The memory-aware lower bound (Theorem 3) can dominate the classical
// bound when memory is scarce and processors plentiful.
func ExampleMemoryLowerBound() {
	t, _ := repro.SyntheticTree(2, 2000)
	_, minMem := repro.MinMemPostOrder(t)
	classical := repro.ClassicalLowerBound(t, 32)
	memory, _ := repro.MemoryLowerBound(t, minMem)
	fmt.Println(memory > classical)
	// Output: true
}

// Activation requires more memory headroom than MemBooking to extract
// the same parallelism: compare peak booked memory on a chain.
func ExampleNewActivation() {
	// A chain: no two tasks can ever run together.
	b := repro.NewTreeBuilder(3)
	n0 := b.AddRoot(2, 3, 1)
	n1 := b.Add(n0, 2, 3, 1)
	b.Add(n1, 2, 3, 1)
	t, _ := b.Build()

	ao, _ := repro.MinMemPostOrder(t)
	act, _ := repro.NewActivation(t, 1000, ao, ao)
	resA, _ := repro.Simulate(t, 4, act, 1000)
	mb, _ := repro.NewMemBooking(t, 1000, ao, ao)
	resB, _ := repro.Simulate(t, 4, mb, 1000)
	fmt.Printf("Activation books %.0f, MemBooking books %.0f\n",
		resA.PeakBooked, resB.PeakBooked)
	// Output: Activation books 15, MemBooking books 8
}

// Simulate returns a *repro.ErrDeadlock when the scheduler stops with
// tasks left. On a chain whose sequential peak is 8, Activation under a
// bound of 6 finishes the leaf, then cannot book its parent's 5 units
// beside the leaf's output.
func ExampleErrDeadlock() {
	b := repro.NewTreeBuilder(3)
	n0 := b.AddRoot(2, 3, 1)
	n1 := b.Add(n0, 2, 3, 1)
	b.Add(n1, 2, 3, 1)
	t, _ := b.Build()

	ao, minMem := repro.MinMemPostOrder(t)
	act, _ := repro.NewActivation(t, 6, ao, ao)
	_, err := repro.Simulate(t, 2, act, 6)
	var dead *repro.ErrDeadlock
	if errors.As(err, &dead) {
		fmt.Printf("peak %.0f; %s finished %d of %d tasks with %.0f booked\n",
			minMem, dead.Scheduler, dead.Finished, dead.Total, dead.Booked)
	}
	// Output: peak 8; Activation finished 1 of 3 tasks with 3 booked
}

// A schedule decided while the tasks run copes with durations it did not
// plan for: MemBooking, built from the nominal tree, runs every
// perturbed realisation of it within the nominal minimum memory.
func ExampleRealise() {
	t, _ := repro.SyntheticTree(5, 200)
	ao, minMem := repro.MinMemPostOrder(t)
	models := repro.PerturbModels()
	within := 0
	for _, m := range models {
		rt, _ := repro.Realise(t, m, 17)
		s, _ := repro.NewMemBooking(t, minMem, ao, ao)
		if res, err := repro.Simulate(rt, 4, s, minMem); err == nil && res.PeakMem <= minMem {
			within++
		}
	}
	fmt.Printf("%d of %d realisations within the bound\n", within, len(models))
	// Output: 6 of 6 realisations within the bound
}
