package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tree"
	"repro/internal/workload"
)

func writeTempTree(t *testing.T) string {
	t.Helper()
	tr := workload.MustSynthetic(workload.NewRNG(3), workload.SyntheticOptions{Nodes: 200})
	path := filepath.Join(t.TempDir(), "t.tree")
	var buf bytes.Buffer
	if err := tree.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllHeuristics(t *testing.T) {
	path := writeTempTree(t)
	// Silence the report output.
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()

	for _, heur := range []string{"MemBooking", "Activation", "MemBookingRedTree"} {
		if err := run(path, heur, 4, 0, 3, "memPO", "CP", false, false); err != nil {
			t.Errorf("%s: %v", heur, err)
		}
	}
	// Gantt + memory profile paths.
	if err := run(path, "MemBooking", 4, 0, 2, "memPO", "memPO", true, true); err != nil {
		t.Errorf("gantt/memprofile: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTempTree(t)
	if err := run(path, "Nope", 4, 0, 2, "memPO", "memPO", false, false); err == nil {
		t.Error("unknown heuristic accepted")
	}
	if err := run(path, "MemBooking", 4, 0, 2, "CP", "memPO", false, false); err == nil {
		t.Error("non-topological AO accepted")
	}
	if err := run(path, "MemBooking", 4, 0, 2, "bogus", "memPO", false, false); err == nil {
		t.Error("unknown AO accepted")
	}
	if err := run(filepath.Join(t.TempDir(), "missing.tree"), "MemBooking", 4, 0, 2, "memPO", "memPO", false, false); err == nil {
		t.Error("missing file accepted")
	}
}

// A file the parser accepts but whose attributes are negative, NaN or
// infinite is refused with Validate's message, as the library readers
// and the daemon refuse it, rather than scheduled into a NaN makespan.
func TestRunRejectsInvalidAttributes(t *testing.T) {
	for _, tc := range []struct{ text, want string }{
		{"0 -1 1 1 1\n1 0 nan 1 1\n2 0 -5 1 1\n", "node 1 has NaN attribute"},
		{"0 -1 1 1 1\n1 0 1 1 -5\n", "node 1 has negative attribute"},
		{"0 -1 1 inf 1\n", "node 0 has infinite attribute"},
	} {
		path := filepath.Join(t.TempDir(), "bad.tree")
		if err := os.WriteFile(path, []byte(tc.text), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(path, "MemBooking", 4, 0, 2, "memPO", "memPO", false, false)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: run = %v, want an error containing %q", tc.text, err, tc.want)
		}
	}
}
