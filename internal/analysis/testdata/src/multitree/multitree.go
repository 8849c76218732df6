// Package multitree is a fixture stub of repro/internal/multitree: just
// enough of the Policy/State surface for the policypure fixtures. The
// analyzer matches the State type by (package name, type name), so this
// stub exercises the same code path as the real package.
package multitree

// QueuedJob is one waiting job.
type QueuedJob struct {
	Name     string
	Peak     float64
	Estimate float64
}

// Bump mutates the job (pointer receiver): calling it on a
// snapshot-owned element is a purity violation.
func (q *QueuedJob) Bump() { q.Peak++ }

// Release is one promised slice return.
type Release struct{ At, Mem float64 }

// State is the read-only snapshot policies decide from.
type State struct {
	Now      float64
	Mem      float64
	FreeMem  float64
	Queue    []QueuedJob
	Active   int
	Releases []Release
}

// Admission grants one queued job a slice.
type Admission struct {
	Queue int
	Slice float64
}

// Policy decides admissions.
type Policy interface {
	Name() string
	Admit(st *State) []Admission
}
