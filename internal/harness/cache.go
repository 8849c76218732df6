package harness

import (
	"sync"

	"repro/internal/bounds"
	"repro/internal/order"
	"repro/internal/tree"
)

// Entry is one tree together with the per-instance artefacts every
// evaluation of it shares: the memPO activation order with its
// sequential peak memory, named traversal orders, and the normalisation
// lower bounds. The artefacts live with the tree, so whoever holds the
// tree's Entry holds them and dropping the Entry drops them: the sweep
// engine keeps one per corpus tree (Engine.entry), and the serving
// path (internal/service) keeps one per cache-resident tree, canonical
// by content, so every per-instance computation behind a request is
// memoized exactly as it is for the batch experiments. Safe for
// concurrent use.
type Entry struct {
	t *tree.Tree

	once sync.Once
	prep Prepared

	mu     sync.Mutex
	orders map[string]*order.Order
	lb     map[lbKey]float64
}

// Prepared is the memoized preparation of one tree: the min-peak
// postorder (the paper's default activation order) and its sequential
// peak memory — the "minimum memory" every bound is normalised by.
type Prepared struct {
	AO   *order.Order
	Peak float64
}

type lbKey struct {
	procs int
	m     float64
}

// NewEntry returns t with nothing memoized yet.
func NewEntry(t *tree.Tree) *Entry {
	return &Entry{t: t, orders: make(map[string]*order.Order), lb: make(map[lbKey]float64)}
}

// Tree returns the entry's tree.
func (e *Entry) Tree() *tree.Tree { return e.t }

// Prepare returns the preparation of the tree. The first call runs the
// O(n log n) computation; callers racing it wait and share the result.
func (e *Entry) Prepare() Prepared {
	pr, _ := e.prepare()
	return pr
}

// prepare also reports whether this call was the one that computed.
func (e *Entry) prepare() (pr Prepared, computed bool) {
	e.once.Do(func() {
		ao, peak := order.MinMemPostOrder(e.t)
		e.prep = Prepared{AO: ao, Peak: peak}
		computed = true
	})
	return e.prep, computed
}

// Order returns the named order of the tree, memoized (memPO is the
// preparation's).
func (e *Entry) Order(name string) (*order.Order, error) {
	if name == order.NameMemPO {
		return e.Prepare().AO, nil
	}
	e.mu.Lock()
	o, ok := e.orders[name]
	e.mu.Unlock()
	if ok {
		return o, nil
	}
	o, _, err := order.ByName(e.t, name)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.orders[name] = o
	e.mu.Unlock()
	return o, nil
}

// LowerBound returns bounds.Best(t, p, m), memoized; errors are folded
// to zero exactly as normalisation treats them.
func (e *Entry) LowerBound(p int, m float64) float64 {
	k := lbKey{p, m}
	e.mu.Lock()
	lb, ok := e.lb[k]
	e.mu.Unlock()
	if ok {
		return lb
	}
	lb, err := bounds.Best(e.t, p, m)
	if err != nil {
		lb = 0
	}
	e.mu.Lock()
	e.lb[k] = lb
	e.mu.Unlock()
	return lb
}
