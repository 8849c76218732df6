package harness

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from this tree's tables")

// Every registered experiment's table is pinned byte for byte: one
// tinyConfig with the fake scheduler clock through all IDs() in order
// (so the cross-figure memo is exercised as cmd/experiments -exp all
// exercises it), FNV-64a of the TSV per table. A refactor of the
// runners or the engine leaves testdata/tables.golden untouched; a
// change that means to move a table regenerates it with
// `go test ./internal/harness -run TestTablesGolden -update`.
func TestTablesGolden(t *testing.T) {
	const path = "testdata/tables.golden"
	cfg := tinyConfig()
	cfg.fakeSchedClock = true
	var got bytes.Buffer
	for _, id := range IDs() {
		tab, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		h := fnv.New64a()
		h.Write(tsvOf(t, tab))
		fmt.Fprintf(&got, "%s %016x\n", id, h.Sum64())
	}
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("table digests differ from %s\n--- want ---\n%s--- got ---\n%s", path, want, got.Bytes())
	}
}
