package harness

import (
	"fmt"
	"sort"
)

// Runner executes one experiment.
type Runner func(cfg *Config) (*Table, error)

// registry maps experiment IDs to runners. Every table and figure of the
// paper's evaluation has an entry (see DESIGN.md §4 for the index).
var registry = map[string]Runner{
	"fig2": func(c *Config) (*Table, error) {
		return makespanSweep("fig2", "normalised makespan vs memory bound, assembly trees (Fig. 2)", c.assembly(), c)
	},
	"fig3": func(c *Config) (*Table, error) {
		return speedupSweep("fig3", "MemBooking speedup over Activation, assembly trees (Fig. 3)", c.assembly(), c)
	},
	"fig4": func(c *Config) (*Table, error) {
		return memFractionSweep("fig4", "fraction of available memory used, assembly trees (Fig. 4)", c.assembly(), c)
	},
	"fig5": func(c *Config) (*Table, error) {
		return schedTimeBySize("fig5", "scheduling time vs tree size, assembly trees (Fig. 5)", c.assembly(), c)
	},
	"fig6": func(c *Config) (*Table, error) {
		return schedTimePerNode("fig6", "scheduling time per node vs height, assembly trees (Fig. 6)", c.assembly(), c)
	},
	"fig7": func(c *Config) (*Table, error) {
		return speedupByHeight("fig7", "speedup vs tree height at memory bound 2, assembly trees (Fig. 7)", c.assembly(), c)
	},
	"fig8": func(c *Config) (*Table, error) {
		return orderStudy("fig8", "activation/execution order study, assembly trees (Fig. 8)", c.assembly(), c)
	},
	"fig9": func(c *Config) (*Table, error) {
		return procSweep("fig9", "makespan vs memory bound for p in 2..32, assembly trees (Fig. 9)", c.assembly(), c)
	},
	"fig10": func(c *Config) (*Table, error) {
		return makespanSweep("fig10", "normalised makespan vs memory bound, synthetic trees (Fig. 10)", c.synthetic(), c)
	},
	"fig11": func(c *Config) (*Table, error) {
		return speedupSweep("fig11", "MemBooking speedup over Activation, synthetic trees (Fig. 11)", c.synthetic(), c)
	},
	"fig12": func(c *Config) (*Table, error) {
		return memFractionSweep("fig12", "fraction of available memory used, synthetic trees (Fig. 12)", c.synthetic(), c)
	},
	"fig13": func(c *Config) (*Table, error) {
		return schedTimeBySize("fig13", "scheduling time vs tree size, synthetic trees (Fig. 13)", c.synthetic(), c)
	},
	"fig14": func(c *Config) (*Table, error) {
		return orderStudy("fig14", "activation/execution order study, synthetic trees (Fig. 14)", c.synthetic(), c)
	},
	"fig15": func(c *Config) (*Table, error) {
		return procSweep("fig15", "makespan vs memory bound for p in 2..32, synthetic trees (Fig. 15)", c.synthetic(), c)
	},
	"lb":           lbStats,
	"redfail":      redTreeFailures,
	"avgmem":       avgMemStudy,
	"profile":      memProfile,
	"ablation":     ablationStudy,
	"moldable":     moldableStudy,
	"dist":         distStudy,
	"price":        priceStudy,
	"robust":       robustStudy,
	"multi":        multiStudy,
	"multi_stream": multiStreamStudy,
	"faults":       faultsStudy,
}

// Run executes the experiment with the given ID.
func Run(id string, cfg *Config) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("harness: unknown experiment %q (known: %v)", id, IDs())
	}
	return r(cfg)
}

// IDs returns the registered experiment IDs, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
