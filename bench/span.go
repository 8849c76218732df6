package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside it: the
// benchmark's own files wrap the call, nothing inside the program is
// instrumented. Times are nanoseconds since the tracer started; Parent
// indexes the enclosing span (-1 for a root) and Op groups the spans of
// one operation (a request, a job, a pass).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// tracer keeps spans in memory until the workload ends. A tracer
// belongs to one goroutine; concurrent clients each own one and the
// results are merged.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32 // stack of spans begun and not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one. A nil tracer
// records nothing, so untraced and traced passes share their code.
func (tr *tracer) begin(name string, op int32) int32 {
	if tr == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(tr.t0))})
	tr.open = append(tr.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (tr *tracer) end(id int32) {
	if tr == nil {
		return
	}
	now := int64(time.Since(tr.t0))
	if n := len(tr.open); n == 0 || tr.open[n-1] != id {
		panic("bench: spans must nest")
	}
	tr.open = tr.open[:len(tr.open)-1]
	tr.spans[id].End = now
}

// merge appends another tracer's spans, re-basing their times and
// parent links. Both tracers must share a clock origin up to skew; the
// skew is applied so merged times stay comparable.
func (tr *tracer) merge(o *tracer) {
	skew := int64(o.t0.Sub(tr.t0))
	base := int32(len(tr.spans))
	for _, s := range o.spans {
		s.Start += skew
		s.End += skew
		if s.Parent >= 0 {
			s.Parent += base
		}
		tr.spans = append(tr.spans, s)
	}
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (overlapping children are counted
// once).
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName groups self times (in nanoseconds) by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[i]))
	}
	return out
}
