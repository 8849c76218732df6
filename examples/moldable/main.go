// Moldable: the paper's §8 extension in action. The root fronts of an
// assembly tree concentrate most of the flops; giving them several
// processors (Amdahl speedup, extra workspace memory per processor)
// resolves the end-of-tree serialisation — but only when the memory
// bound can afford the workspaces. This example sweeps the memory bound
// and shows molding degrading gracefully to the rigid schedule.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/sim"
)

func main() {
	t, err := repro.AssemblyTreeFromGrid2D(96, 8)
	if err != nil {
		log.Fatal(err)
	}
	ao, minMem := repro.MinMemPostOrder(t)
	prof := moldable.DefaultProfile(t)
	const p = 8

	fmt.Printf("assembly tree: %d fronts; %d processors; tasks moldable via Amdahl profiles\n\n", t.Len(), p)
	fmt.Println("mem/min  rigid     moldable  speedup  wide-tasks  max-width")
	for _, factor := range []float64{1, 1.25, 1.5, 2, 3, 5} {
		m := factor * minMem
		rigid, err := core.NewMemBooking(t, m, ao, ao)
		if err != nil {
			log.Fatal(err)
		}
		rres, err := sim.Run(t, p, rigid, &sim.Options{CheckMemory: true, Bound: m})
		if err != nil {
			log.Fatal(err)
		}
		ms, err := moldable.NewMemBookingMoldable(t, m, ao, ao, prof, p)
		if err != nil {
			log.Fatal(err)
		}
		mres, err := sim.Run(t, p, ms, &sim.Options{CheckMemory: true, Bound: m})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8.2f %-9.4g %-9.4g %-8.2f %-11d %d\n",
			factor, rres.Makespan, mres.Makespan,
			rres.Makespan/mres.Makespan, mres.WideTasks, mres.MaxWidth)
	}
	fmt.Println("\nWide allocations appear as soon as the bound can afford their")
	fmt.Println("workspaces; under the minimum bound the schedule stays rigid-safe.")
}
