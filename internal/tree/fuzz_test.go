package tree

import (
	"bytes"
	"math"
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
