package tree

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// firstDiff returns the first node at which a and b differ, their
// common length when only the sizes differ, or -1 when they are the
// same tree. Attributes compare by bit pattern, so that a NaN the
// parser accepted equals itself.
func firstDiff(a, b *Tree) int {
	bits := math.Float64bits
	for i := 0; i < min(a.Len(), b.Len()); i++ {
		id := NodeID(i)
		if a.Parent(id) != b.Parent(id) || bits(a.Exec(id)) != bits(b.Exec(id)) ||
			bits(a.Out(id)) != bits(b.Out(id)) || bits(a.Time(id)) != bits(b.Time(id)) {
			return i
		}
	}
	if a.Len() != b.Len() {
		return min(a.Len(), b.Len())
	}
	return -1
}

// parseBoth runs in through both entry points and fails the test unless
// they agree: the same tree, or the same error text.
func parseBoth(t *testing.T, in string, maxNodes int) (*Tree, error) {
	t.Helper()
	tr, err := ReadLimited(strings.NewReader(in), maxNodes)
	str, serr := ParseLimited(in, maxNodes)
	if err != nil || serr != nil {
		if err == nil || serr == nil || err.Error() != serr.Error() {
			t.Fatalf("limit %d: reader form says %v, string form says %v", maxNodes, err, serr)
		}
	} else if i := firstDiff(tr, str); i >= 0 {
		t.Fatalf("limit %d: reader form (%d nodes) and string form (%d nodes) differ at node %d", maxNodes, tr.Len(), str.Len(), i)
	}
	return tr, err
}

// FuzzRead exercises the .tree parser: it must never panic, its reader
// and string forms must agree on every input, and whenever it accepts
// one, the resulting tree must satisfy every structural invariant and
// survive a write/read round trip.
func FuzzRead(f *testing.F) {
	f.Add("0 -1 0 1 1\n")
	f.Add("# comment\n0 -1 0.5 2 3\n1 0 0 1 1\n2 0 0 1 1\n")
	f.Add("1 0 0 1 1\n0 -1 0 1 1\n")
	f.Add("0 -1 1e300 1e-300 0\n")
	f.Add("")
	f.Add("0 -1 x y z\n")
	f.Add("0 1\n")
	f.Add("0 -1 NaN 1 1\n")
	f.Add("0 -1 -5 1 1\n")
	f.Add("0 -1 inf 1 1\n")
	f.Add("0 -1 1 1 -inf\n")
	f.Add("-2 -1 1 1 1\n")               // negative id: used to panic with index out of range
	f.Add("1000000000000000 -1 1 1 1\n") // absurd id: used to drive unbounded allocation
	f.Add("0 -1 1 1 1\n2000000000 0 1 1 1\n")
	f.Add("0 4000000000000 1 1 1\n") // parent that would wrap int32
	f.Add("1 0 1 1 1\n1 0 1 1 1\n")
	f.Add("0 -1 1 1 1\r\n\r\n1 0 1 1 1")                      // CRLF, no final newline
	f.Add("0\u00a0-1\u20031 1\u00851\n \t# c\n1 0 1 1 1 1\n") // strings.Fields' Unicode spaces; six fields
	f.Add("\xff 0 0 0 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		parseBoth(t, in, 2)
		tr, err := parseBoth(t, in, 0)
		if err != nil {
			return
		}
		if verr := tr.Validate(); verr != nil {
			// Read performs structural validation; attribute sanity
			// (negative/NaN) is Validate's job, so a parse success with
			// invalid attributes is allowed — anything else is a bug.
			if !strings.Contains(verr.Error(), "negative") &&
				!strings.Contains(verr.Error(), "NaN") &&
				!strings.Contains(verr.Error(), "infinite") {
				t.Fatalf("accepted structurally invalid tree: %v", verr)
			}
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("write failed on accepted tree: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if i := firstDiff(tr, back); i >= 0 {
			t.Fatalf("round trip changed the tree (%d -> %d nodes) at node %d", tr.Len(), back.Len(), i)
		}
	})
}

// sameParser reports whether two parsers hold the same state, entry
// attributes compared by bit pattern.
func sameParser(a, b *parser) bool {
	if a.maxNodes != b.maxNodes || a.lineNo != b.lineNo || a.maxID != b.maxID ||
		a.maxIDLine != b.maxIDLine || len(a.entries) != len(b.entries) {
		return false
	}
	bits := math.Float64bits
	for i, x := range a.entries {
		y := b.entries[i]
		if x.id != y.id || x.line != y.line || x.parent != y.parent || bits(x.exec) != bits(y.exec) ||
			bits(x.out) != bits(y.out) || bits(x.time) != bits(y.time) {
			return false
		}
	}
	return true
}

// FuzzLine holds the parser's fast path to its general one. On any
// line that spaced cuts, at any node limit and with any number of lines
// already taken, record over that cut either fails and leaves the
// parser untouched — and then the general path (fields, then record)
// rejects the line too — or appends exactly the entry the general path
// appends, bit patterns and line number included. FuzzRead cannot see
// a divergence here, since its reader and string forms both run the
// same line function.
func FuzzLine(f *testing.F) {
	for _, s := range []string{
		"0 -1 0.5 2 3",
		"12 3 1e-300 1e300 0",
		"0\t-1\t1\t1\t1",
		"0  -1 1 1 1",
		" 0 -1 1 1 1",
		"0 -1 1 1 1 ",
		"+1 0 1 1 1",
		"1 +0 1 1 1",
		"007 0 1 1 1",
		"1 -0 1 1 1",
		"1_0 0 1 1 1",
		"1 0 0x1p-2 1 1",
		"1 0 1_0 1 1",
		"1 0 Inf -inf +Inf",
		"1 0 nan NaN 1",
		"1234567890 0 1 1 1",
		"123456789 0 1 1 1",
		"1 -1234567890 1 1 1",
		"3 0 1 1 1",
		"0\u00a0-1 1 1 1",
		"0 -1 1 1 1\r",
		"0 -1 1 1 1 1",
		"0 -1 1 1",
		"-2 -1 1 1 1",
		"0 -2 1 1 1",
		"0 - 1 1 1",
		"0 -1 1e999 1 1",
		"1 0 4.342048232014497 43.42048232014497 43.42048232014497",
		"1 0 1 0x1p-2 0x1p-2",
		"1 0 1 1e999 1e999",
	} {
		f.Add(s, uint8(0), uint8(0))
		f.Add(s, uint8(3), uint8(2))
	}
	f.Add("0 -1 1 1 1", uint8(3), uint8(3)) // the table is full
	f.Fuzz(func(t *testing.T, line string, maxNodes, taken uint8) {
		fresh := func() *parser {
			p := &parser{maxNodes: int(maxNodes), lineNo: int(taken) + 1, maxID: -1}
			for i := range int(taken) {
				p.entries = append(p.entries, entry{id: i, line: i + 1})
				p.maxID, p.maxIDLine = i, i+1
			}
			return p
		}
		var cut, all [5]string
		if !spaced(line, &cut) {
			return
		}
		fast, slow := fresh(), fresh()
		fastErr := fast.record(&cut)
		var slowErr error
		if n := fields(line, &all); n != 5 {
			slowErr = fmt.Errorf("%d fields", n)
		} else {
			slowErr = slow.record(&all)
		}
		switch {
		case fastErr != nil && slowErr == nil:
			t.Fatalf("the fast path rejects %q (%v), which the general path takes", line, fastErr)
		case fastErr != nil && !sameParser(fast, fresh()):
			t.Fatalf("the fast path rejected %q but changed the parser", line)
		case fastErr == nil && slowErr != nil:
			t.Fatalf("the fast path takes %q, which the general path rejects: %v", line, slowErr)
		case fastErr == nil && !sameParser(fast, slow):
			t.Fatalf("on %q the fast path appended %+v, the general path %+v", line, fast.entries[len(fast.entries)-1], slow.entries[len(slow.entries)-1])
		}
	})
}

// fmtWrite is the fmt-based writer Write replaced, kept as the oracle
// for its bytes.
func fmtWrite(t *Tree) string {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "# task tree: %d nodes\n", t.Len())
	fmt.Fprintf(&b, "# id parent exec out time\n")
	for i := 0; i < t.Len(); i++ {
		id := NodeID(i)
		fmt.Fprintf(&b, "%d %d %s %s %s\n", i, t.Parent(id), g(t.Exec(id)), g(t.Out(id)), g(t.Time(id)))
	}
	return b.String()
}

// FuzzWrite checks Write's lines against the fmt oracle over arbitrary
// parents and float64 bit patterns (the tree is built unvalidated, as
// Write never looks at its structure), and that the parser's fast path
// takes every data line with a parent the parser accepts, back to the
// same attributes.
func FuzzWrite(f *testing.F) {
	bits := math.Float64bits
	f.Add(int32(-1), int32(0), bits(0.5), bits(2), bits(3), bits(0.1+0.2), bits(1e21), bits(1e-7))
	f.Add(int32(math.MinInt32), int32(math.MaxInt32), bits(math.Copysign(0, -1)), bits(5e-324),
		bits(math.MaxFloat64), bits(math.NaN()), bits(math.Inf(1)), bits(math.Inf(-1)))
	f.Add(int32(0), int32(-1), bits(4.342048232014497), bits(43.42048232014497), bits(43.42048232014497),
		bits(0), bits(math.Copysign(0, -1)), bits(math.Copysign(0, -1))) // t_i = f_i, and ±0 side by side
	f.Add(int32(999999999), int32(1000000000), uint64(1)<<63|1, ^uint64(0), uint64(0x7ff0000000000001), bits(1<<53), bits(-1e-310), bits(123456789))
	f.Fuzz(func(t *testing.T, p0, p1 int32, a, b, c, d, e, g uint64) {
		fl := math.Float64frombits
		tr := &Tree{
			parent: []NodeID{NodeID(p0), NodeID(p1)},
			exec:   []float64{fl(a), fl(d)},
			out:    []float64{fl(b), fl(e)},
			time:   []float64{fl(c), fl(g)},
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got, want := buf.String(), fmtWrite(tr)
		if got != want {
			t.Fatalf("Write emitted\n%s\nthe fmt oracle\n%s", got, want)
		}
		lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")[2:]
		for i, line := range lines {
			if par := tr.parent[i]; par < -1 || par == math.MaxInt32 {
				continue // a parent the parser rejects whatever the path
			}
			var cut [5]string
			p := parser{maxID: -1}
			if !spaced(line, &cut) || p.record(&cut) != nil {
				t.Fatalf("the fast path declined Write's line %q", line)
			}
			e := p.entries[0]
			for k, v := range [3]float64{e.exec, e.out, e.time} {
				x := [3]float64{tr.exec[i], tr.out[i], tr.time[i]}[k]
				if bits(v) != bits(x) && !(math.IsNaN(v) && math.IsNaN(x)) {
					t.Fatalf("line %q: attribute %d read back as %v, want %v", line, k, v, x)
				}
			}
		}
	})
}
