package tree

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The .tree text format, one task per line:
//
//	# comment
//	<id> <parent|-1> <exec> <out> <time>
//
// IDs must be 0..n-1; lines may appear in any order.

// Write serialises t in the .tree format.
func Write(w io.Writer, t *Tree) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# task tree: %d nodes\n", t.Len())
	fmt.Fprintf(bw, "# id parent exec out time\n")
	for i := 0; i < t.Len(); i++ {
		id := NodeID(i)
		_, err := fmt.Fprintf(bw, "%d %d %s %s %s\n", i, t.Parent(id),
			fmtFloat(t.Exec(id)), fmtFloat(t.Out(id)), fmtFloat(t.Time(id)))
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// ErrTooLarge is wrapped by ReadLimited when the input names more nodes
// than the caller allows; match it with errors.Is to distinguish "too
// big" from "malformed" (a service maps the former to 413, the latter
// to 400).
var ErrTooLarge = errors.New("tree: input exceeds the node limit")

// Read parses the .tree format. It never panics: ids are validated
// before they index anything, and memory is bounded by the input size
// (a line naming id k allocates nothing until the whole input has been
// read and k is known to be a dense 0..n-1 id).
func Read(r io.Reader) (*Tree, error) { return ReadLimited(r, 0) }

// maxLineBytes is the longest line either entry point accepts; a
// longer one fails with bufio.ErrTooLong.
const maxLineBytes = 1<<20 - 1

// ReadLimited is Read with an upper bound on the node count: any input
// with more than maxNodes data lines — or naming an id ≥ maxNodes — is
// rejected as soon as the excess is seen, with an error wrapping
// ErrTooLarge. maxNodes ≤ 0 means unlimited. This is the ingestion
// path for untrusted bytes: hostile inputs can neither crash the
// parser nor make it allocate beyond the limit.
func ReadLimited(r io.Reader, maxNodes int) (*Tree, error) {
	sc := bufio.NewScanner(r)
	// The scanner doubles this up to the cap, so a small tree never pays
	// for the longest line the format allows.
	sc.Buffer(make([]byte, 4096), maxLineBytes+1)
	p := parser{maxNodes: maxNodes, maxID: -1}
	for sc.Scan() {
		if err := p.line(sc.Text()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p.tree()
}

// ParseLimited is ReadLimited over text already in memory: the same
// trees, the same errors with the same line numbers, but lines and
// fields are cut as substrings of text, so the parse allocates a
// constant number of blocks (the entry table and the tree's own
// arrays) whatever the node count.
func ParseLimited(text string, maxNodes int) (*Tree, error) {
	// A data line is at least 10 bytes ("0 -1 0 0 0"), so the entry table
	// sized here stays proportional to the input however the bytes are
	// arranged, and is exact for a well-formed file.
	rows := min(strings.Count(text, "\n")+1, len(text)/10+1)
	if maxNodes > 0 {
		rows = min(rows, maxNodes)
	}
	p := parser{maxNodes: maxNodes, maxID: -1, entries: make([]entry, 0, rows)}
	for len(text) > 0 {
		line, rest, _ := strings.Cut(text, "\n")
		if len(line) > maxLineBytes {
			return nil, bufio.ErrTooLong
		}
		if err := p.line(line); err != nil {
			return nil, err
		}
		text = rest
	}
	return p.tree()
}

// entry is one data line, held until the whole input has proved its ids
// dense.
type entry struct {
	id, line        int
	parent          NodeID
	exec, out, time float64
}

// parser is the state both entry points share: they differ only in how
// they cut the input into lines.
type parser struct {
	maxNodes         int
	lineNo           int
	entries          []entry
	maxID, maxIDLine int
}

// fields cuts s around runs of white space exactly as strings.Fields
// does, without allocating: the first five fields land in f and the
// return value counts them all.
func fields(s string, f *[5]string) (n int) {
	start := -1
	for i := 0; i < len(s); {
		c, w := s[i], 1
		space := c == ' ' || '\t' <= c && c <= '\r'
		if c >= utf8.RuneSelf {
			var r rune
			r, w = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
		}
		if !space {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			if n < len(f) {
				f[n] = s[start:i]
			}
			n, start = n+1, -1
		}
		i += w
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = s[start:]
		}
		n++
	}
	return n
}

// line consumes the next input line (without its terminator).
func (p *parser) line(line string) error {
	p.lineNo++
	line = strings.TrimSpace(line)
	if line == "" || line[0] == '#' {
		return nil
	}
	var f [5]string
	if n := fields(line, &f); n != 5 {
		return fmt.Errorf("tree: line %d: want 5 fields, got %d", p.lineNo, n)
	}
	id, err := strconv.Atoi(f[0])
	if err != nil {
		return fmt.Errorf("tree: line %d: bad id: %v", p.lineNo, err)
	}
	if id < 0 || id > math.MaxInt32-1 {
		return fmt.Errorf("tree: line %d: bad id %d (ids are 0..n-1)", p.lineNo, id)
	}
	if p.maxNodes > 0 && (id >= p.maxNodes || len(p.entries) >= p.maxNodes) {
		return fmt.Errorf("tree: line %d: %w (%d nodes allowed)", p.lineNo, ErrTooLarge, p.maxNodes)
	}
	par, err := strconv.Atoi(f[1])
	if err != nil {
		return fmt.Errorf("tree: line %d: bad parent: %v", p.lineNo, err)
	}
	if par < -1 || par > math.MaxInt32-1 {
		// Reject before the int32 conversion below can wrap a huge
		// parent into a plausible-looking NodeID.
		return fmt.Errorf("tree: line %d: bad parent %d", p.lineNo, par)
	}
	var vals [3]float64
	for k := range vals {
		vals[k], err = strconv.ParseFloat(f[2+k], 64)
		if err != nil {
			return fmt.Errorf("tree: line %d: bad float: %v", p.lineNo, err)
		}
	}
	p.entries = append(p.entries, entry{id, p.lineNo, NodeID(par), vals[0], vals[1], vals[2]})
	if id > p.maxID {
		p.maxID, p.maxIDLine = id, p.lineNo
	}
	return nil
}

// tree builds the tree once every line has been consumed.
func (p *parser) tree() (*Tree, error) {
	if len(p.entries) == 0 {
		return nil, fmt.Errorf("tree: empty input")
	}
	n := len(p.entries)
	if p.maxID >= n {
		// IDs must be dense 0..n-1, so an id at or beyond the data-line
		// count can never be valid — and node storage is only allocated
		// once this holds, so one hostile line cannot demand unbounded
		// memory.
		return nil, fmt.Errorf("tree: line %d: bad id %d in %d-line input (ids are 0..n-1)", p.maxIDLine, p.maxID, n)
	}
	parent := make([]NodeID, n)
	exec := make([]float64, n)
	out := make([]float64, n)
	tm := make([]float64, n)
	seen := make([]int, n)
	for _, e := range p.entries {
		if seen[e.id] != 0 {
			return nil, fmt.Errorf("tree: line %d: duplicate id %d (first on line %d)", e.line, e.id, seen[e.id])
		}
		seen[e.id] = e.line
		parent[e.id], exec[e.id], out[e.id], tm[e.id] = e.parent, e.exec, e.out, e.time
	}
	// n entries with distinct ids below n cover every id: no missing-node
	// scan is needed.
	return New(parent, exec, out, tm)
}

// WriteFile writes t to path in the .tree format.
func WriteFile(path string, t *Tree) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a .tree file.
func ReadFile(path string) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteDOT emits a Graphviz rendering of t (edges child -> parent, labels
// with the node attributes). Intended for small trees.
func WriteDOT(w io.Writer, t *Tree) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph tasktree {")
	fmt.Fprintln(bw, "  rankdir=BT;")
	for i := 0; i < t.Len(); i++ {
		id := NodeID(i)
		fmt.Fprintf(bw, "  n%d [label=\"%d\\nn=%.3g f=%.3g t=%.3g\"];\n",
			i, i, t.Exec(id), t.Out(id), t.Time(id))
		if p := t.Parent(id); p != None {
			fmt.Fprintf(bw, "  n%d -> n%d [label=\"%.3g\"];\n", i, p, t.Out(id))
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
