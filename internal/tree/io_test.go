package tree

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// Regression: a negative id used to index rows[-2] and panic; hostile
// ids must produce a "bad id" error instead (never a crash).
func TestReadRejectsNegativeID(t *testing.T) {
	for _, in := range []string{
		"-2 -1 1 1 1",   // the original crashing input
		"-2 -1 1 1 1\n", // with trailing newline
		"0 -1 1 1 1\n-7 0 1 1 1\n",
	} {
		tr, err := Read(strings.NewReader(in))
		if err == nil {
			t.Fatalf("Read(%q) accepted a negative id: %v", in, tr)
		}
		if !strings.Contains(err.Error(), "bad id") {
			t.Errorf("Read(%q) error = %q, want a %q error", in, err, "bad id")
		}
	}
}

// Absurd ids must not allocate node storage proportional to the id: a
// two-line input naming id 10^15 is rejected with a bad-id error.
func TestReadRejectsAbsurdID(t *testing.T) {
	for _, in := range []string{
		"1000000000000000 -1 1 1 1\n",         // > MaxInt32
		"0 -1 1 1 1\n2000000000 0 1 1 1\n",    // fits int32, sparse beyond line count
		"7 -1 1 1 1\n",                        // single line, id beyond n-1
		"0 9999999999999999999999 1 1 1\n",    // parent overflows int
		"0 -1 1 1 1\n1 4000000000000 1 1 1\n", // parent would wrap int32
	} {
		if tr, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) accepted: %v", in, tr)
		}
	}
}

func TestReadDuplicateIDReportsBothLines(t *testing.T) {
	_, err := Read(strings.NewReader("0 -1 1 1 1\n1 0 1 1 1\n1 0 2 2 2\n"))
	if err == nil || !strings.Contains(err.Error(), "duplicate id 1") {
		t.Fatalf("want duplicate-id error, got %v", err)
	}
}

func TestReadLimited(t *testing.T) {
	ok := "0 -1 1 1 1\n1 0 1 1 1\n2 0 1 1 1\n"
	if _, err := ReadLimited(strings.NewReader(ok), 3); err != nil {
		t.Fatalf("ReadLimited at the limit: %v", err)
	}
	for _, in := range []string{
		ok,                  // one node over the limit of 2
		"5 -1 1 1 1\n",      // id beyond the limit on the first line
		"0 -1 1 1 1\n" + ok, // line count over the limit
	} {
		_, err := parseBoth(t, in, 2)
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("ReadLimited(%q, 2) = %v, want ErrTooLarge", in, err)
		}
	}
	// Unlimited (0) still parses.
	if _, err := ReadLimited(strings.NewReader(ok), 0); err != nil {
		t.Fatalf("ReadLimited unlimited: %v", err)
	}
}

// Both forms accept a line of up to maxLineBytes and fail one byte
// later with bufio.ErrTooLong, terminated or not — after reporting any
// earlier line's error first.
func TestLongLines(t *testing.T) {
	head, tail := "0 -1 1 1 1\n", "\n1 0 1 1 1\n"
	for _, tc := range []struct {
		name, in string
		want     error
	}{
		{"longest comment", head + "#" + strings.Repeat("x", maxLineBytes-1) + tail, nil},
		{"comment one over", head + "#" + strings.Repeat("x", maxLineBytes) + tail, bufio.ErrTooLong},
		{"longest blank tail", head + strings.Repeat(" ", maxLineBytes), nil},
		{"blank tail one over", head + strings.Repeat(" ", maxLineBytes+1), bufio.ErrTooLong},
		{"CR counts", head + strings.Repeat(" ", maxLineBytes) + "\r\n", bufio.ErrTooLong},
	} {
		if _, err := parseBoth(t, tc.in, 0); err != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
	_, err := parseBoth(t, "0 -1 1 1\n"+strings.Repeat("x", maxLineBytes+1), 0)
	if err == nil || !strings.Contains(err.Error(), "line 1: want 5 fields, got 4") {
		t.Errorf("bad line before an over-long one: %v", err)
	}
}

// First sight of a tree should cost a handful of blocks — the entry
// table and the tree's own arrays — not a string and a field slice per
// line: the count must not grow with the node count.
func TestParseLimitedAllocs(t *testing.T) {
	var b strings.Builder
	b.WriteString("# 10k-node chain\n0 -1 0.5 2 3\n")
	for i := 1; i < 10000; i++ {
		fmt.Fprintf(&b, "%d %d 0.25 %d.5 1e-3\n", i, i-1, i)
	}
	text := b.String()
	if tr, err := ParseLimited(text, 10000); err != nil || tr.Len() != 10000 {
		t.Fatalf("ParseLimited: %v, %v", tr, err)
	}
	if got := testing.AllocsPerRun(5, func() { ParseLimited(text, 10000) }); got > 64 {
		t.Fatalf("ParseLimited allocates %v blocks for 10k nodes, want <= 64", got)
	}
}

// The parser remains order-insensitive and round-trippable after the
// hardening: lines in any order, same tree back.
func TestReadShuffledLines(t *testing.T) {
	tr, err := Read(strings.NewReader("2 0 3 4 5\n0 -1 1 2 3\n1 0 2 3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 || tr.Root() != 0 || tr.Parent(2) != 0 {
		t.Fatalf("unexpected tree: %+v", tr)
	}
	if tr.Exec(2) != 3 || tr.Out(2) != 4 || tr.Time(2) != 5 {
		t.Fatalf("node 2 attributes wrong")
	}
}
