// Command treesched schedules a .tree file with one of the three
// heuristics and prints the resulting makespan, memory behaviour, lower
// bounds and scheduling overhead.
//
// Usage:
//
//	treesched -heur MemBooking -p 8 -memfactor 2 tree.tree
//	treesched -heur Activation -p 4 -mem 1e9 -ao memPO -eo CP tree.tree
//
// The memory bound is either absolute (-mem) or a multiple of the
// minimum sequential memory (-memfactor, the paper's normalised bound).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/baseline"
	"repro/internal/bounds"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/tree"
)

func main() {
	var (
		heur      = flag.String("heur", "MemBooking", "heuristic: "+strings.Join(baseline.Names, ", "))
		p         = flag.Int("p", 8, "processors")
		mem       = flag.Float64("mem", 0, "absolute memory bound (overrides -memfactor)")
		memFactor = flag.Float64("memfactor", 2, "memory bound as a multiple of the minimum sequential memory")
		aoName    = flag.String("ao", order.NameMemPO, "activation order: memPO, perfPO, OptSeq, naturalPO, avgMemPO")
		eoName    = flag.String("eo", order.NameMemPO, "execution order: memPO, perfPO, CP, OptSeq, naturalPO, avgMemPO")
		gantt     = flag.Bool("gantt", false, "render an ASCII Gantt chart")
		memProf   = flag.Bool("memprofile", false, "render an ASCII memory profile")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: treesched [flags] tree.tree")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *heur, *p, *mem, *memFactor, *aoName, *eoName, *gantt, *memProf); err != nil {
		fmt.Fprintln(os.Stderr, "treesched:", err)
		os.Exit(1)
	}
}

func run(path, heur string, p int, mem, memFactor float64, aoName, eoName string, gantt, memProf bool) error {
	t, err := tree.ReadFile(path)
	if err != nil {
		return err
	}
	if err := t.Validate(); err != nil {
		return err
	}
	st := t.ComputeStats()
	_, minPeak := order.MinMemPostOrder(t)
	m := mem
	if m == 0 {
		m = memFactor * minPeak
	}
	ao, _, err := order.ByName(t, aoName)
	if err != nil {
		return err
	}
	if !ao.Topological {
		return fmt.Errorf("activation order %s is not topological", aoName)
	}
	eo, _, err := order.ByName(t, eoName)
	if err != nil {
		return err
	}

	s, run, err := baseline.New(heur, t, m, ao, eo)
	if err != nil {
		return err
	}

	fmt.Printf("tree        %s (%d nodes, height %d, max degree %d)\n",
		path, st.Nodes, st.Height, st.MaxDegree)
	fmt.Printf("min memory  %.6g (peak of memPO)\n", minPeak)
	fmt.Printf("bound       %.6g (%.3gx)\n", m, m/minPeak)
	opts := &sim.Options{CheckMemory: true, Bound: m}
	if gantt || memProf {
		opts.Trace = &sim.Trace{}
	}
	res, err := sim.Run(run, p, s, opts)
	if err != nil {
		return err
	}
	lb, err := bounds.Best(t, p, m)
	if err != nil {
		return err
	}
	classical := bounds.Classical(t, p)
	memLB, _ := bounds.Memory(t, m)
	fmt.Printf("heuristic   %s on %d processors (AO=%s, EO=%s)\n", s.Name(), p, aoName, eoName)
	fmt.Printf("makespan    %.6g (%.4gx the lower bound)\n", res.Makespan, res.Makespan/lb)
	fmt.Printf("lower bnds  classical %.6g, memory-aware %.6g\n", classical, memLB)
	fmt.Printf("memory      peak used %.6g (%.1f%% of bound), peak booked %.6g\n",
		res.PeakMem, 100*res.PeakMem/m, res.PeakBooked)
	fmt.Printf("utilization %.1f%%  scheduling time %v\n", 100*res.Utilization(p), res.SchedTime)
	if gantt {
		fmt.Println()
		if err := sim.Gantt(os.Stdout, opts.Trace.Spans, res.Makespan, 100); err != nil {
			return err
		}
	}
	if memProf {
		fmt.Println()
		if err := sim.RenderMemory(os.Stdout, opts.Trace.Mem, m, 100, 10); err != nil {
			return err
		}
	}
	return nil
}
