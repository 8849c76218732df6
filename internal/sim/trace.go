package sim

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/stats"
	"repro/internal/tree"
)

// Trace is the record of one simulated run that Options.Trace asks for:
// what ran when, and the memory in use and booked after every event
// batch. Its slices are reused across runs.
type Trace struct {
	// Spans holds one span per launched task, sorted by start time, node
	// ID breaking ties.
	Spans []Span
	// Mem holds one sample per event batch, in time order.
	Mem []MemSample
}

// Span is one task execution. End is the start plus the duration the
// task ran for, at its granted width when the scheduler is Wide.
type Span struct {
	Node  tree.NodeID `json:"node"`
	Start float64     `json:"start"`
	End   float64     `json:"end"`
}

// MemSample is the model memory in use and the memory booked at one
// instant of a run.
type MemSample struct {
	Time, Used, Booked float64
}

// sortSpans orders the spans by (Start, Node). The sort is stable, so
// spans with equal keys keep their recording order and the output is
// byte-identical across runs.
func (tr *Trace) sortSpans() {
	sort.SliceStable(tr.Spans, func(a, b int) bool {
		if tr.Spans[a].Start != tr.Spans[b].Start {
			return tr.Spans[a].Start < tr.Spans[b].Start
		}
		return tr.Spans[a].Node < tr.Spans[b].Node
	})
}

// Gantt renders the spans as an ASCII chart: one row per processor lane,
// time flowing right, width columns wide. Lanes are assigned greedily
// (first free lane), which matches any engine that treats processors as
// interchangeable.
func Gantt(w io.Writer, spans []Span, makespan float64, width int) error {
	if width < 20 {
		width = 20
	}
	if makespan <= 0 {
		return fmt.Errorf("sim: non-positive makespan")
	}
	// Assign lanes.
	type lane struct {
		busyUntil float64
		cells     []byte
	}
	var lanes []*lane
	scale := float64(width) / makespan
	glyphs := "##**%%@@++==oo"
	for k, s := range spans {
		var l *lane
		for _, cand := range lanes {
			if cand.busyUntil <= s.Start+1e-12 {
				l = cand
				break
			}
		}
		if l == nil {
			l = &lane{cells: []byte(strings.Repeat(".", width))}
			lanes = append(lanes, l)
		}
		l.busyUntil = s.End
		a := int(s.Start * scale)
		b := int(s.End * scale)
		if b >= width {
			b = width - 1
		}
		g := glyphs[(k/2)%len(glyphs)]
		for c := a; c <= b; c++ {
			l.cells[c] = g
		}
	}
	fmt.Fprintf(w, "time 0 %s %.4g\n", strings.Repeat("-", width-12), makespan)
	for i, l := range lanes {
		if _, err := fmt.Fprintf(w, "P%-3d %s\n", i, l.cells); err != nil {
			return err
		}
	}
	return nil
}

// RenderMemory draws a memory profile as an ASCII chart with height
// rows, used memory drawn with '#' and booked memory with ':' above it;
// bound scales the vertical axis.
func RenderMemory(w io.Writer, samples []MemSample, bound float64, width, height int) error {
	if len(samples) == 0 {
		return fmt.Errorf("sim: no samples")
	}
	if width < 20 {
		width = 20
	}
	if height < 4 {
		height = 4
	}
	tmax := samples[len(samples)-1].Time
	if tmax <= 0 {
		tmax = 1
	}
	if bound <= 0 {
		for _, s := range samples {
			if s.Booked > bound {
				bound = s.Booked
			}
		}
		if bound == 0 {
			bound = 1
		}
	}
	col := func(i int) int { return int(samples[i].Time / tmax * float64(width-1)) }
	usedCol := stats.StepColumns(width, len(samples), col, func(i int) float64 { return samples[i].Used })
	bookedCol := stats.StepColumns(width, len(samples), col, func(i int) float64 { return samples[i].Booked })
	for row := height; row >= 1; row-- {
		threshold := bound * float64(row) / float64(height)
		line := make([]byte, width)
		for c := 0; c < width; c++ {
			switch {
			case usedCol[c] >= threshold:
				line[c] = '#'
			case bookedCol[c] >= threshold:
				line[c] = ':'
			default:
				line[c] = ' '
			}
		}
		label := ""
		if row == height {
			label = fmt.Sprintf(" %.3g (bound)", bound)
		}
		if _, err := fmt.Fprintf(w, "|%s|%s\n", line, label); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "+%s+ t=%.4g  (# used, : booked)\n", strings.Repeat("-", width), tmax)
	return err
}
