package multitree

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
)

// TestStalledSubscriberDoesNotBlockAdmission pins the observability
// contract the whole design hangs on: a subscriber that never receives
// a frame costs the scheduler nothing. The observed run must produce a
// bit-identical Result to the bare run — same makespan, same per-job
// outcomes, same queue statistics — while the stalled subscription
// records dropped frames instead of exerting backpressure. Run with
// -race: the drain goroutine is live throughout.
func TestStalledSubscriberDoesNotBlockAdmission(t *testing.T) {
	specs, info := MakeStream(&StreamOptions{Seed: 11, Jobs: 300, MinNodes: 20, MaxNodes: 500, Rungs: 5})
	bare, err := Run(specs, &Options{Procs: 16, Mem: info.Mem, Policy: EASY{}})
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately tiny ring and a 1-frame subscription that is never
	// read: the worst consumer the API admits.
	o := obs.New(&obs.Options{Ring: 1 << 10, Frame: 16, Poll: time.Millisecond, SingleProducer: true})
	stalled := o.Subscribe(1)
	res, err := Run(specs, &Options{Procs: 16, Mem: info.Mem, Policy: EASY{}, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	o.Close()
	if !reflect.DeepEqual(bare, res) {
		t.Fatalf("observer changed the schedule:\nbare %+v\nobs  %+v", bare, res)
	}
	if stalled.Dropped() == 0 {
		t.Fatal("stalled subscriber reports zero dropped frames — was it exerting backpressure?")
	}
	if o.DroppedFrames() < stalled.Dropped() {
		t.Fatalf("observer DroppedFrames %d below the subscription's %d", o.DroppedFrames(), stalled.Dropped())
	}
	stalled.Close()
}

// TestObserverEventConsistency cross-checks the event stream against
// the Result counters on a fault-injected run: every counter the
// simulator reports must be reconstructible from the events alone, and
// the timeline built from them must reproduce the occupancy high-water
// mark. This is the oracle that keeps the emission points honest as
// the engine evolves.
func TestObserverEventConsistency(t *testing.T) {
	specs, mem := faultStream(t, 17, 12)
	m := faults.TaskFailures(0.008)
	res, evs := observed(t, specs, &Options{Procs: 8, Mem: mem, Policy: EASY{},
		Faults: &FaultOptions{
			Plan:       m.NewPlan(faults.Seed(5, m, "obs")),
			MaxRetries: 6,
			Backoff:    faults.Backoff{Base: 25, Cap: 400, Jitter: 0.2},
			Checkpoint: core.CheckpointEvery{K: 3},
		}})
	if res.Restarts == 0 || res.Checkpoints == 0 {
		t.Fatalf("fault grid too tame (restarts %d, checkpoints %d): the oracle is vacuous", res.Restarts, res.Checkpoints)
	}
	var admits, finishes, faultEvs, restarts, cks, done, doneFailed int
	for _, ev := range evs {
		switch ev.Kind {
		case obs.KindAdmit:
			admits++
		case obs.KindFinish:
			finishes++
		case obs.KindFault:
			faultEvs++
		case obs.KindRestart:
			restarts++
		case obs.KindCheckpoint:
			cks++
		case obs.KindDone:
			done++
			if ev.B != 0 {
				doneFailed++
			}
		}
	}
	if finishes != res.Events {
		t.Errorf("finish events %d, committed completions %d", finishes, res.Events)
	}
	if done != len(res.Jobs) {
		t.Errorf("done events %d, jobs %d", done, len(res.Jobs))
	}
	if doneFailed != res.FailedJobs {
		t.Errorf("failed done events %d, FailedJobs %d", doneFailed, res.FailedJobs)
	}
	if restarts != res.Restarts {
		t.Errorf("restart events %d, Restarts %d", restarts, res.Restarts)
	}
	if cks != res.Checkpoints {
		t.Errorf("checkpoint events %d, Checkpoints %d", cks, res.Checkpoints)
	}
	// Every fail either re-queues (restart) or is terminal (failed).
	if faultEvs != res.Restarts+res.FailedJobs {
		t.Errorf("fault events %d, Restarts+FailedJobs %d", faultEvs, res.Restarts+res.FailedJobs)
	}
	attempts := 0
	for i := range res.Jobs {
		attempts += res.Jobs[i].Attempts
	}
	if admits != attempts {
		t.Errorf("admit events %d, Σ attempts %d", admits, attempts)
	}
	names := make([]string, len(specs))
	for i := range specs {
		names[i] = specs[i].Name
	}
	tl := obs.BuildTimeline(evs, names, mem)
	peak := 0.0
	for _, s := range tl.Occupancy {
		if s.Reserved > peak {
			peak = s.Reserved
		}
	}
	// Float association order differs between the engine's freeMem
	// bookkeeping and the timeline's running sum.
	if rel := math.Abs(peak-res.PeakReserved) / math.Max(res.PeakReserved, 1); rel > 1e-6 {
		t.Errorf("timeline peak %g, PeakReserved %g (rel %g)", peak, res.PeakReserved, rel)
	}
	if tl.Restarts != res.Restarts || tl.Checkpoints != res.Checkpoints {
		t.Errorf("timeline restarts/checkpoints %d/%d, result %d/%d",
			tl.Restarts, tl.Checkpoints, res.Restarts, res.Checkpoints)
	}
	if tl.Jobs != len(res.Jobs) {
		t.Errorf("timeline jobs %d, result %d", tl.Jobs, len(res.Jobs))
	}
}

var update = flag.Bool("update", false, "rewrite testdata/events.golden from this tree's event streams")

// observed runs specs under opt with a logging observer dedicated to
// the run and returns the result with the run's full event stream.
func observed(t *testing.T, specs []JobSpec, opt *Options) (*Result, []obs.Event) {
	t.Helper()
	o := obs.New(&obs.Options{Ring: 1 << 16, Poll: time.Millisecond, Log: true, SingleProducer: true})
	opt.Observer = o
	res, err := Run(specs, opt)
	o.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d := o.DroppedEvents(); d != 0 {
		t.Fatalf("event ring overflowed (%d drops); the stream is incomplete", d)
	}
	return res, o.Events()
}

// TestEventsGolden pins the cluster's whole event stream, not only the
// Result it adds up to: FNV-64a over every event's kind, time, job,
// node and payloads, per fault-injected case under EASY. A refactor of
// the cluster loop leaves testdata/events.golden untouched; a change
// that means to move an event regenerates it with
// `go test ./internal/multitree -run TestEventsGolden -update`.
func TestEventsGolden(t *testing.T) {
	const path = "testdata/events.golden"
	specs, mem := faultStream(t, 17, 12)
	var got bytes.Buffer
	for _, m := range []faults.Model{faults.TaskFailures(0.008), faults.Mixed(0.004, 2e-4, 4e-5)} {
		for _, backoff := range []faults.Backoff{{}, {Base: 25, Cap: 400, Jitter: 0.2}} {
			name := fmt.Sprintf("%s/backoff%g", m.Name, backoff.Base)
			res, evs := observed(t, specs, &Options{Procs: 8, Mem: mem, Policy: EASY{},
				Faults: &FaultOptions{
					Plan:       m.NewPlan(faults.Seed(5, m, "events")),
					MaxRetries: 6,
					Backoff:    backoff,
					Checkpoint: core.CheckpointEvery{K: 3},
				}})
			if res.Restarts == 0 || res.Checkpoints == 0 {
				t.Fatalf("%s: too tame to pin anything (restarts %d, checkpoints %d)", name, res.Restarts, res.Checkpoints)
			}
			h := fnv.New64a()
			hashEvents(h, evs)
			fmt.Fprintf(&got, "%s %d %016x\n", name, len(evs), h.Sum64())
		}
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
		t.Errorf("event stream digests differ from %s\n--- want ---\n%s--- got ---\n%s", path, want, got.Bytes())
	}
}

// hashEvents writes every event's time, job, node, kind and payloads
// into h.
func hashEvents(h hash.Hash, evs []obs.Event) {
	var b []byte
	for _, ev := range evs {
		b = binary.LittleEndian.AppendUint64(b[:0], math.Float64bits(ev.Time))
		b = binary.LittleEndian.AppendUint32(b, uint32(ev.Job))
		b = binary.LittleEndian.AppendUint32(b, uint32(ev.Node))
		b = append(b, byte(ev.Kind))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ev.A))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ev.B))
		h.Write(b)
	}
}
