package repro

import (
	"io"
	"net/http"

	"repro/internal/baseline"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/order"
	"repro/internal/perturb"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/tree"
	"repro/internal/workload"
)

// Core model types.
type (
	// Tree is a rooted in-tree of tasks (see internal/tree).
	Tree = tree.Tree
	// NodeID identifies a task.
	NodeID = tree.NodeID
	// TreeBuilder constructs trees incrementally, top-down.
	TreeBuilder = tree.Builder
	// Order is a task priority, optionally backed by a topological
	// sequence.
	Order = order.Order
	// Scheduler is the dynamic scheduling policy driven by the simulator
	// or the live executor.
	Scheduler = core.Scheduler
	// SimResult summarises a simulated execution.
	SimResult = sim.Result
	// SimOptions tunes a simulation.
	SimOptions = sim.Options
	// ExecResult summarises a live execution.
	ExecResult = executor.Result
	// Task is the user work body for live execution.
	Task = executor.Task
	// Instance is a named workload tree.
	Instance = workload.Instance
	// ErrDeadlock is the typed no-progress error shared by the simulator
	// and the live executor; match it with errors.As.
	ErrDeadlock = core.ErrDeadlock
	// PerturbModel is a named duration-perturbation model for the
	// robustness suite (see internal/perturb).
	PerturbModel = perturb.Model
	// ServiceOptions configures the scheduling service (see
	// internal/service and cmd/treeschedd).
	ServiceOptions = service.Options
	// ServiceStats is the service's /statsz payload.
	ServiceStats = service.Stats
)

// None is the absent node (parent of the root).
const None = tree.None

// NewTree builds a tree from parallel attribute arrays; parent[i] is the
// parent of task i (None for the root).
func NewTree(parent []NodeID, exec, out, time []float64) (*Tree, error) {
	return tree.New(parent, exec, out, time)
}

// NewTreeBuilder returns a Builder with capacity for n nodes.
func NewTreeBuilder(n int) *TreeBuilder { return tree.NewBuilder(n) }

// ReadTree parses the .tree text format and validates the result:
// beyond the parser's structural checks it rejects NaN or negative
// attributes, which the schedulers are not defined on. Inputs from
// untrusted sources go through this entry point (internal callers that
// deliberately construct degenerate trees can use the internal parser).
func ReadTree(r io.Reader) (*Tree, error) {
	t, err := tree.Read(r)
	return validatedTree(t, err)
}

// ReadTreeFile reads a .tree file, validating like ReadTree.
func ReadTreeFile(path string) (*Tree, error) {
	t, err := tree.ReadFile(path)
	return validatedTree(t, err)
}

// validatedTree chains attribute validation onto a parse result, so
// both public readers share one definition of "acceptable input".
func validatedTree(t *Tree, err error) (*Tree, error) {
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteTree serialises a tree in the .tree text format.
func WriteTree(w io.Writer, t *Tree) error { return tree.Write(w, t) }

// WriteTreeFile writes a tree to a .tree file.
func WriteTreeFile(path string, t *Tree) error { return tree.WriteFile(path, t) }

// Traversal orders (§3, §7.2 and Appendix A of the paper).

// MinMemPostOrder returns Liu's peak-memory-minimising postorder (memPO)
// and its sequential peak memory — the "minimum memory" every experiment
// normalises by.
func MinMemPostOrder(t *Tree) (*Order, float64) { return order.MinMemPostOrder(t) }

// OptSeq returns the optimal sequential traversal (not necessarily a
// postorder) minimising peak memory, and its peak.
func OptSeq(t *Tree) (*Order, float64) { return order.OptSeq(t) }

// PerfPostOrder returns the parallel-performance postorder (perfPO).
func PerfPostOrder(t *Tree) *Order { return order.PerfPostOrder(t) }

// CriticalPathOrder returns tasks by decreasing bottom-level (CP); an
// execution order, not a topological one.
func CriticalPathOrder(t *Tree) *Order { return order.CriticalPathOrder(t) }

// AvgMemPostOrder returns the average-memory-minimising postorder.
func AvgMemPostOrder(t *Tree) *Order { return order.AvgMemPostOrder(t) }

// OrderByName computes the named order ("memPO", "perfPO", "CP",
// "OptSeq", "naturalPO", "avgMemPO").
func OrderByName(t *Tree, name string) (*Order, float64, error) { return order.ByName(t, name) }

// PeakMemory returns the peak memory of a sequential execution of seq.
func PeakMemory(t *Tree, seq []NodeID) (float64, error) { return order.PeakMemory(t, seq) }

// Schedulers.

// NewMemBooking builds the paper's MemBooking scheduler for memory bound
// m, activation order ao (topological) and execution order eo.
func NewMemBooking(t *Tree, m float64, ao, eo *Order) (Scheduler, error) {
	return core.NewMemBooking(t, m, ao, eo)
}

// NewActivation builds the baseline Activation scheduler (Agullo et al.).
func NewActivation(t *Tree, m float64, ao, eo *Order) (Scheduler, error) {
	return baseline.NewActivation(t, m, ao, eo)
}

// NewMemBookingRedTree builds the reduction-tree booking baseline. The
// returned scheduler must be executed on its transformed tree, available
// via SchedulerTree.
func NewMemBookingRedTree(t *Tree, m float64, ao, eo *Order) (*baseline.MemBookingRedTree, error) {
	return baseline.NewMemBookingRedTree(t, m, ao, eo)
}

// Simulate runs the scheduler on p processors with the discrete-event
// simulator, auditing that the model memory stays within bound m.
func Simulate(t *Tree, p int, s Scheduler, m float64) (*SimResult, error) {
	return sim.Run(t, p, s, &sim.Options{CheckMemory: true, Bound: m})
}

// SimulateOpts runs a simulation with full control over the options.
func SimulateOpts(t *Tree, p int, s Scheduler, opts *SimOptions) (*SimResult, error) {
	return sim.Run(t, p, s, opts)
}

// Execute runs the tree for real on a pool of worker goroutines, with
// the scheduler deciding dynamically which tasks may start.
func Execute(t *Tree, s Scheduler, workers int, task Task) (*ExecResult, error) {
	return executor.Run(t, s, workers, task)
}

// Duration uncertainty (DESIGN.md §6).

// PerturbModels returns the default duration-perturbation grid:
// lognormal and uniform multiplicative noise, heavy-tail stragglers, a
// bimodal fast/slow split and zero-duration degenerates.
func PerturbModels() []PerturbModel { return perturb.DefaultModels() }

// Realise returns a perturbed realisation of t under model m: same
// shape and data sizes, durations scaled by seeded per-task factors.
// Schedulers built from the nominal t (and its orders and bounds) can
// execute the realisation — the information asymmetry of the paper's
// dynamic-scheduling claim.
func Realise(t *Tree, m PerturbModel, seed uint64) (*Tree, error) {
	return perturb.Realise(t, m, seed)
}

// Serving (DESIGN.md §7).

// NewServiceHandler returns the scheduling service's HTTP handler
// (POST /schedule, POST /jobs, GET /jobs/{id}, GET /healthz,
// GET /statsz, GET /metricsz, GET /streamz) — the API that
// cmd/treeschedd serves. nil opts selects the defaults. Embed it in an
// existing mux to serve scheduling next to other endpoints.
func NewServiceHandler(opts *ServiceOptions) http.Handler {
	return service.New(opts).Handler()
}

// Lower bounds (§6).

// ClassicalLowerBound returns max(total work / p, critical path).
func ClassicalLowerBound(t *Tree, p int) float64 { return bounds.Classical(t, p) }

// MemoryLowerBound returns the paper's memory-aware makespan bound
// (Theorem 3): (1/M) Σ MemNeeded(i)·t_i.
func MemoryLowerBound(t *Tree, m float64) (float64, error) { return bounds.Memory(t, m) }

// BestLowerBound returns the tighter of the two bounds.
func BestLowerBound(t *Tree, p int, m float64) (float64, error) { return bounds.Best(t, p, m) }

// Workloads (§7.1).

// SyntheticTree generates one tree with the paper's synthetic
// distribution (degrees in 1..5, truncated-exponential edge weights).
func SyntheticTree(seed uint64, nodes int) (*Tree, error) {
	return workload.Synthetic(workload.NewRNG(seed), workload.SyntheticOptions{Nodes: nodes})
}

// SyntheticCorpus generates count trees of each size.
func SyntheticCorpus(seed uint64, count int, sizes []int) []Instance {
	return workload.SyntheticCorpus(seed, count, sizes)
}

// AssemblyTreeFromGrid2D factors an n×n 5-point grid under nested
// dissection and returns its assembly tree.
func AssemblyTreeFromGrid2D(n, amalgamation int) (*Tree, error) {
	p, coords := sparse.Grid2D(n, n)
	res, err := sparse.AssemblyTree(p, sparse.NestedDissection(coords, 8),
		&sparse.AssemblyOptions{Amalgamation: amalgamation})
	if err != nil {
		return nil, err
	}
	return res.Tree, nil
}

// AssemblyTreeFromGrid3D factors an n×n×n 7-point grid under nested
// dissection and returns its assembly tree.
func AssemblyTreeFromGrid3D(n, amalgamation int) (*Tree, error) {
	p, coords := sparse.Grid3D(n, n, n)
	res, err := sparse.AssemblyTree(p, sparse.NestedDissection(coords, 12),
		&sparse.AssemblyOptions{Amalgamation: amalgamation})
	if err != nil {
		return nil, err
	}
	return res.Tree, nil
}
