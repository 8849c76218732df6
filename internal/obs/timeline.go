package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Timeline is the cluster-wide generalisation of sim.Gantt: where a
// Gantt chart lays task spans onto processor lanes for one tree, the
// timeline lays job lifecycles onto per-job memory-occupancy lanes for
// a whole cluster run, reconstructed from a recorded event stream
// (Observer with Options.Log). Each lane is one job: its admitted
// segments (a fault ends a segment, a retry opens the next), its
// granted slice, and whether EASY-style backfilling jumped it over the
// queue head. The occupancy series is the step function of Σ active
// slices — the quantity the partition invariant bounds by Mem — and
// the queue series is the admission-queue depth.
type Timeline struct {
	// Jobs is the number of distinct jobs observed.
	Jobs int `json:"jobs"`
	// Mem is the cluster pool the occupancy is bounded by (0 = unknown).
	Mem float64 `json:"mem,omitempty"`
	// Makespan is the time of the last observed event.
	Makespan float64 `json:"makespan"`
	// Lanes holds one entry per job, ordered by job index.
	Lanes []Lane `json:"lanes"`
	// Occupancy is the step series of (time, Σ active slices, queue
	// depth), one sample per change.
	Occupancy []Sample `json:"occupancy"`
	// Restarts and Checkpoints aggregate the fault activity observed.
	Restarts    int `json:"restarts"`
	Checkpoints int `json:"checkpoints"`
}

// Lane is one job's lifecycle on the timeline.
type Lane struct {
	Job  int    `json:"job"`
	Name string `json:"name,omitempty"`
	// Slice is the memory slice of the job's last admission.
	Slice float64 `json:"slice"`
	// Backfilled marks a job that was admitted ahead of an
	// earlier-queued job (an EASY backfill reservation).
	Backfilled bool `json:"backfilled,omitempty"`
	// Failed marks a job that exhausted its retries.
	Failed bool `json:"failed,omitempty"`
	// Checkpoints counts snapshots; Attempts counts admissions.
	Checkpoints int `json:"checkpoints,omitempty"`
	Attempts    int `json:"attempts"`
	// Tasks counts committed task completions.
	Tasks int `json:"tasks"`
	// Segments are the job's admitted intervals, one per attempt that
	// got admitted; an aborted segment ended in a fault.
	Segments []Segment `json:"segments"`

	ckAt []float64 // checkpoint instants, for the text rendering
}

// Segment is one admitted interval of a job.
type Segment struct {
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Aborted bool    `json:"aborted,omitempty"`
}

// Sample is one step of the occupancy/queue series.
type Sample struct {
	Time     float64 `json:"t"`
	Reserved float64 `json:"reserved"`
	Queue    int     `json:"queue"`
}

// BuildTimeline reconstructs a Timeline from a recorded event stream
// (in drain order). names, when non-nil, maps job index to display
// name; mem scales the occupancy axis (0 leaves it to the data). The
// builder tolerates streams with ring drops: an orphan fault/done
// closes nothing, a re-admission closes the lane's open segment first,
// and reserved memory is clamped at zero.
func BuildTimeline(events []Event, names []string, mem float64) *Timeline {
	tl := &Timeline{Mem: mem}
	lanes := map[int32]*Lane{}
	lane := func(job int32) *Lane {
		l := lanes[job]
		if l == nil {
			l = &Lane{Job: int(job)}
			if names != nil && int(job) >= 0 && int(job) < len(names) {
				l.Name = names[job]
			}
			lanes[job] = l
		}
		return l
	}
	reserved, queue := 0.0, 0
	sample := func(t float64) {
		tl.Occupancy = append(tl.Occupancy, Sample{Time: t, Reserved: reserved, Queue: queue})
	}
	closeSeg := func(l *Lane, t float64, aborted bool) bool {
		if n := len(l.Segments); n > 0 && l.Segments[n-1].End < 0 {
			l.Segments[n-1].End = t
			l.Segments[n-1].Aborted = aborted
			return true
		}
		return false
	}
	for _, ev := range events {
		if ev.Time > tl.Makespan {
			tl.Makespan = ev.Time
		}
		switch ev.Kind {
		case KindAdmit:
			l := lane(ev.Job)
			closeSeg(l, ev.Time, false) // drop-tolerance: no two open segments
			l.Segments = append(l.Segments, Segment{Start: ev.Time, End: -1})
			l.Slice = ev.A
			l.Attempts++
			reserved += ev.A
			sample(ev.Time)
		case KindBackfill:
			lane(ev.Job).Backfilled = true
		case KindStart:
			// Per-task launches refine nothing at lane granularity.
		case KindFinish:
			lane(ev.Job).Tasks++
		case KindFault:
			l := lane(ev.Job)
			if closeSeg(l, ev.Time, true) {
				reserved -= l.Slice
				if reserved < 0 {
					reserved = 0
				}
				sample(ev.Time)
			}
		case KindRestart:
			tl.Restarts++
		case KindCheckpoint:
			l := lane(ev.Job)
			l.Checkpoints++
			l.ckAt = append(l.ckAt, ev.Time)
			tl.Checkpoints++
		case KindQueueDepth:
			queue = int(ev.A)
			sample(ev.Time)
		case KindDone:
			l := lane(ev.Job)
			l.Failed = ev.B != 0
			if closeSeg(l, ev.Time, l.Failed) {
				reserved -= l.Slice
				if reserved < 0 {
					reserved = 0
				}
				sample(ev.Time)
			}
		}
	}
	tl.Jobs = len(lanes)
	tl.Lanes = make([]Lane, 0, len(lanes))
	for _, l := range lanes {
		// A stream truncated mid-run can leave a segment open; close it
		// at the horizon so the rendering stays sane.
		closeSeg(l, tl.Makespan, false)
		tl.Lanes = append(tl.Lanes, *l)
	}
	sort.Slice(tl.Lanes, func(a, b int) bool { return tl.Lanes[a].Job < tl.Lanes[b].Job })
	return tl
}

// JSON returns the timeline as indented JSON.
func (tl *Timeline) JSON() ([]byte, error) {
	return json.MarshalIndent(tl, "", "  ")
}

// WriteText renders the timeline as ASCII art, one row per job lane
// (capped at maxJobs; 40 when maxJobs <= 0) over a shared time axis,
// followed by the cluster occupancy profile and the queue-depth track.
// Glyphs: '#' admitted, '*' admitted via backfill, 'x' fault, 'c'
// checkpoint, '.' waiting between attempts, 'F' terminal failure.
func (tl *Timeline) WriteText(w io.Writer, width, maxJobs int) error {
	if width < 20 {
		width = 20
	}
	if maxJobs <= 0 {
		maxJobs = 40
	}
	if tl.Makespan <= 0 {
		return fmt.Errorf("obs: empty timeline")
	}
	scale := float64(width-1) / tl.Makespan
	col := func(t float64) int {
		c := int(t * scale)
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	fmt.Fprintf(w, "cluster timeline: %d jobs, makespan %.4g, mem %.4g  (# run, * backfilled, x fault, c checkpoint, F failed)\n",
		tl.Jobs, tl.Makespan, tl.Mem)
	fmt.Fprintf(w, "time 0 %s %.4g\n", strings.Repeat("-", max(width-12, 1)), tl.Makespan)
	shown := tl.Lanes
	if len(shown) > maxJobs {
		shown = shown[:maxJobs]
	}
	for i := range shown {
		l := &shown[i]
		cells := []byte(strings.Repeat(" ", width))
		glyph := byte('#')
		if l.Backfilled {
			glyph = '*'
		}
		for si, seg := range l.Segments {
			a, b := col(seg.Start), col(seg.End)
			for c := a; c <= b; c++ {
				cells[c] = glyph
			}
			if seg.Aborted {
				cells[b] = 'x'
			}
			// The wait between one segment's end and the next's start is
			// the retry backoff plus the re-queue: draw it as queued time.
			if si+1 < len(l.Segments) {
				for c := b + 1; c < col(l.Segments[si+1].Start); c++ {
					cells[c] = '.'
				}
			}
		}
		for _, t := range l.ckAt {
			cells[col(t)] = 'c'
		}
		if l.Failed && len(l.Segments) > 0 {
			cells[col(l.Segments[len(l.Segments)-1].End)] = 'F'
		}
		name := l.Name
		if name == "" {
			name = fmt.Sprintf("job%d", l.Job)
		}
		if len(name) > 14 {
			name = name[:14]
		}
		extra := ""
		if l.Attempts > 1 {
			extra = fmt.Sprintf(" (%d attempts)", l.Attempts)
		}
		if _, err := fmt.Fprintf(w, "J%-4d %-14s %s slice %.3g%s\n", l.Job, name, cells, l.Slice, extra); err != nil {
			return err
		}
	}
	if len(tl.Lanes) > maxJobs {
		fmt.Fprintf(w, "… %d more jobs\n", len(tl.Lanes)-maxJobs)
	}
	if len(tl.Occupancy) > 0 {
		if err := tl.writeOccupancy(w, width); err != nil {
			return err
		}
	}
	return nil
}

// writeOccupancy draws the Σ-active-slices step function (height 5,
// '#' columns, scaled by Mem when known) and the queue-depth track
// (digits, '+' past 9).
func (tl *Timeline) writeOccupancy(w io.Writer, width int) error {
	const height = 5
	scale := float64(width-1) / tl.Makespan
	occ := tl.Occupancy
	col := func(i int) int { return min(int(occ[i].Time*scale), width-1) }
	resCol := stats.StepColumns(width, len(occ), col, func(i int) float64 { return occ[i].Reserved })
	queueCol := stats.StepColumns(width, len(occ), col, func(i int) float64 { return float64(occ[i].Queue) })
	bound := tl.Mem
	if bound <= 0 {
		for _, v := range resCol {
			if v > bound {
				bound = v
			}
		}
		if bound == 0 {
			bound = 1
		}
	}
	fmt.Fprintf(w, "occupancy (Σ active slices, bound %.4g):\n", bound)
	for row := height; row >= 1; row-- {
		threshold := bound * float64(row) / float64(height)
		line := make([]byte, width)
		for c := 0; c < width; c++ {
			if resCol[c] >= threshold {
				line[c] = '#'
			} else {
				line[c] = ' '
			}
		}
		if _, err := fmt.Fprintf(w, "|%s|\n", line); err != nil {
			return err
		}
	}
	qline := make([]byte, width)
	for c := 0; c < width; c++ {
		switch q := int(queueCol[c]); {
		case q <= 0:
			qline[c] = ' '
		case q > 9:
			qline[c] = '+'
		default:
			qline[c] = byte('0' + q)
		}
	}
	_, err := fmt.Fprintf(w, "queue %s\n", qline)
	return err
}
