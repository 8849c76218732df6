package obs_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/multitree"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/timeline.golden from this tree's renderer")

// TestTimelineGolden pins the timeline's bytes: the text rendering at
// two widths (one with the pool bound, one scaled to the data) and the
// JSON form, for a fixed fault-injected job stream recorded the way
// cmd/experiments -timeline records it. A refactor of the renderer
// leaves testdata/timeline.golden untouched; a change that means to
// move a byte regenerates it with
// `go test ./internal/obs -run TestTimelineGolden -update`.
func TestTimelineGolden(t *testing.T) {
	const path = "testdata/timeline.golden"
	const seed = 3
	specs, info := multitree.MakeStream(&multitree.StreamOptions{
		Seed: seed, Jobs: 24, MinNodes: 20, MaxNodes: 800, Rungs: 6,
	})
	m := faults.TaskFailures(0.004)
	o := obs.New(&obs.Options{Ring: 1 << 18, Log: true, SingleProducer: true})
	if _, err := multitree.Run(specs, &multitree.Options{
		Procs: 4, Mem: info.Mem, Policy: multitree.EASY{},
		Observer: o,
		Faults: &multitree.FaultOptions{
			Plan:       m.NewPlan(faults.Seed(seed, m, "timeline")),
			MaxRetries: 4,
			Backoff:    faults.Backoff{Base: 10, Cap: 200, Jitter: 0.3},
			Checkpoint: core.CheckpointEvery{K: 8},
		},
	}); err != nil {
		t.Fatal(err)
	}
	o.Close()
	if d := o.DroppedEvents(); d != 0 {
		t.Fatalf("event ring overflowed (%d drops)", d)
	}
	names := make([]string, len(specs))
	for i := range specs {
		names[i] = specs[i].Name
	}
	evs := o.Events()
	var got bytes.Buffer
	for _, c := range []struct {
		mem            float64
		width, maxJobs int
	}{{info.Mem, 100, 40}, {0, 47, 10}} {
		fmt.Fprintf(&got, "== text mem=%g width=%d jobs=%d ==\n", c.mem, c.width, c.maxJobs)
		if err := obs.BuildTimeline(evs, names, c.mem).WriteText(&got, c.width, c.maxJobs); err != nil {
			t.Fatal(err)
		}
	}
	js, err := obs.BuildTimeline(evs, names, info.Mem).JSON()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(js)
	fmt.Fprintf(&got, "== json ==\n%d bytes, fnv64a %016x\n", len(js), h.Sum64())

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
		t.Errorf("timeline rendering differs from %s\n--- want ---\n%s--- got ---\n%s", path, want, got.Bytes())
	}
}
