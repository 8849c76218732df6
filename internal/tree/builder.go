package tree

// Builder constructs trees incrementally. Nodes are added top-down: the
// first node added is the root, and every later node names an existing
// parent. IDs are assigned densely in insertion order.
type Builder struct {
	parent []NodeID
	exec   []float64
	out    []float64
	time   []float64
}

// NewBuilder returns a Builder with capacity for n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{
		parent: make([]NodeID, 0, n),
		exec:   make([]float64, 0, n),
		out:    make([]float64, 0, n),
		time:   make([]float64, 0, n),
	}
}

// AddRoot adds the root node and returns its ID. It must be called first
// and exactly once.
func (b *Builder) AddRoot(exec, out, tm float64) NodeID {
	if len(b.parent) != 0 {
		panic("tree.Builder: AddRoot after nodes were added")
	}
	return b.add(None, exec, out, tm)
}

// Add adds a node under parent and returns its ID.
func (b *Builder) Add(parent NodeID, exec, out, tm float64) NodeID {
	if parent < 0 || int(parent) >= len(b.parent) {
		panic("tree.Builder: unknown parent")
	}
	return b.add(parent, exec, out, tm)
}

func (b *Builder) add(parent NodeID, exec, out, tm float64) NodeID {
	id := NodeID(len(b.parent))
	b.parent = append(b.parent, parent)
	b.exec = append(b.exec, exec)
	b.out = append(b.out, out)
	b.time = append(b.time, tm)
	return id
}

// Build finalises the tree.
func (b *Builder) Build() (*Tree, error) {
	return New(b.parent, b.exec, b.out, b.time)
}
