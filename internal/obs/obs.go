// Package obs is the live-telemetry layer: a fixed-capacity ring
// buffer of typed cluster events written by the scheduling hot paths
// (multitree's event loop, the service), drained asynchronously into
// pooled frames and fanned out to subscribers over buffered channels
// with drop-oldest semantics. The design contract is one-directional
// backpressure-freedom: an emitter never waits on a consumer and never
// allocates — a full ring drops the newest event and counts it, a slow
// subscriber drops its oldest frame and counts it, and neither can
// delay admission or dispatch by as much as a channel operation.
//
// Both producer modes write the one ring. SingleProducer mode is for
// the simulator's single-threaded event loop: one cached-bound check
// per event, visibility published every spFlushBatch events (and at
// Flush), so an emit costs a handful of nanoseconds inside the loop the
// steady-state benchmarks guard. The default shared mode does the same
// bounded write under a mutex and publishes each event at once; its one
// user, the service, emits a few events per async job.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the event type tag.
type Kind uint8

// Event kinds and their A/B payloads. The cluster simulator
// (internal/multitree) emits every kind:
//
//	Admit      job admitted; A = granted slice, B = free memory after
//	Start      task launched; Node set, A = duration
//	Finish     task committed; Node set
//	Fault      job attempt killed by a fault; A = slice
//	Restart    job re-queued after a fault; A = retry instant, B = attempt
//	Checkpoint job snapshot taken; A = booked memory
//	Backfill   admission out of arrival order (reservation jumped the queue); A = slice
//	QueueDepth admission queue length changed; A = new depth
//	Done       job finished; A = slice, B = 1 for a job that exhausted retries
//
// The scheduling service (internal/service) emits four, one job per
// POST /jobs request, with Node = -1 (and Job = -1 on QueueDepth), each
// inside the job-store transition it reports:
//
//	Admit      job enqueued; A = payload bytes it retains
//	QueueDepth a job was enqueued, started or expired; A = jobs now
//	           waiting for a slot
//	Start      evaluation began on a worker slot; A and B unused
//	Done       job ended; B = 1 when it failed (a 4xx or 5xx verdict, or
//	           a deadline that passed while it waited for a slot), A unused
const (
	KindAdmit Kind = iota
	KindStart
	KindFinish
	KindFault
	KindRestart
	KindCheckpoint
	KindBackfill
	KindQueueDepth
	KindDone
	kindCount
)

var kindNames = [kindCount]string{
	"admit", "start", "finish", "fault", "restart",
	"checkpoint", "backfill", "queue", "done",
}

// String returns the wire name used in the SSE feed and timeline JSON.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one typed cluster event. Time is the emitter's clock —
// simulation time from multitree, wall seconds since start from the
// service. Job and Node are -1 when not applicable.
type Event struct {
	Time float64 `json:"t"`
	Job  int32   `json:"job"`
	Node int32   `json:"node"`
	Kind Kind    `json:"-"`
	A    float64 `json:"a,omitempty"`
	B    float64 `json:"b,omitempty"`
}

// spFlushBatch is the publication granularity of SingleProducer mode:
// the producer makes its writes visible to the drainer once per this
// many events (and at every Flush), trading up to spFlushBatch-1
// events of drain lag for one atomic exchange per batch instead of
// per event.
const spFlushBatch = 32

// Options configure an Observer; the zero value (or nil) selects the
// defaults noted per field.
type Options struct {
	// Ring is the event-ring capacity, rounded up to a power of two
	// (default 1<<15). A full ring drops the newest event.
	Ring int
	// Frame caps the events per fanout frame (default 256).
	Frame int
	// Poll is the drain interval (default 5ms). The drainer is purely
	// timer-driven — the emit path never signals it — so this bounds
	// both the fanout latency and the rate the ring must absorb.
	Poll time.Duration
	// Log retains every drained event in memory (for Timeline and
	// tests); leave it off for long-running servers.
	Log bool
	// SingleProducer promises that one goroutine alone calls Emit and
	// Flush (any number may Subscribe), for the batched lock-free path.
	// The default shared mode locks per emit and is safe for all.
	SingleProducer bool
}

// Observer owns one event ring, its drain goroutine and the
// subscriber set. The zero value is not usable; create one with New.
// All methods are safe on a nil receiver (no-ops), so call sites can
// thread an optional *Observer without branching.
type Observer struct {
	mask uint64
	sp   bool

	// wpos belongs to the producer (in shared mode, to the emitMu
	// holder) and tailCache to the single producer; head publishes
	// wpos; tail belongs to the drainer.
	buf       []Event
	wpos      uint64
	tailCache uint64
	head      atomic.Uint64
	tail      atomic.Uint64
	emitMu    sync.Mutex

	droppedEvents atomic.Uint64 // emits refused by a full ring
	droppedFrames atomic.Uint64 // frames dropped across all subscribers

	frameMax int
	pool     sync.Pool

	mu     sync.Mutex
	subs   []*Subscription
	closed bool

	logOn bool
	logMu sync.Mutex
	log   []Event

	poll      time.Duration
	done      chan struct{}
	drainedCh chan struct{}
	closeOnce sync.Once
}

// New creates an Observer and starts its drain goroutine; nil opts
// selects the defaults. Stop it with Close.
func New(opts *Options) *Observer {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.Ring <= 0 {
		o.Ring = 1 << 15
	}
	size := 1
	for size < o.Ring {
		size <<= 1
	}
	if o.Frame <= 0 {
		o.Frame = 256
	}
	if o.Poll <= 0 {
		o.Poll = 5 * time.Millisecond
	}
	ob := &Observer{
		mask:     uint64(size - 1),
		sp:       o.SingleProducer,
		buf:      make([]Event, size),
		frameMax: o.Frame,
		logOn:    o.Log,
		poll:     o.Poll,
		done:     make(chan struct{}),
		// drainedCh is closed by the drain goroutine on exit; Close
		// receives from it, so shutdown is a struct{} done-channel pair.
		drainedCh: make(chan struct{}),
	}
	go ob.drainLoop()
	return ob
}

// Emit records one event. It never waits on a consumer and never
// allocates: a full ring drops the event and counts it in
// DroppedEvents. A nil observer costs the one branch below. In
// SingleProducer mode only the owning goroutine may call it; events
// become visible to the drainer in batches of spFlushBatch — call
// Flush when the producing loop ends. In shared mode each event is
// visible at once.
func (o *Observer) Emit(kind Kind, t float64, jobID, node int32, a, b float64) {
	if o == nil {
		return
	}
	if o.sp {
		if o.wpos-o.tailCache > o.mask {
			o.tailCache = o.tail.Load()
			if o.wpos-o.tailCache > o.mask {
				o.droppedEvents.Add(1)
				return
			}
		}
		o.buf[o.wpos&o.mask] = Event{Time: t, Job: jobID, Node: node, Kind: kind, A: a, B: b}
		o.wpos++
		if o.wpos-o.head.Load() >= spFlushBatch {
			o.head.Store(o.wpos)
		}
		return
	}
	o.emitMu.Lock()
	defer o.emitMu.Unlock()
	if o.wpos-o.tail.Load() > o.mask {
		o.droppedEvents.Add(1)
		return
	}
	o.buf[o.wpos&o.mask] = Event{Time: t, Job: jobID, Node: node, Kind: kind, A: a, B: b}
	o.wpos++
	o.head.Store(o.wpos)
}

// Flush publishes any events still unpublished by the single-producer
// batching; the producing goroutine calls it when its loop ends (it is
// a no-op in shared mode, which publishes per event).
func (o *Observer) Flush() {
	if o == nil {
		return
	}
	if o.sp {
		o.head.Store(o.wpos)
	}
}

// drainLoop moves ring contents into frames at every poll tick until
// Close, then performs a final drain and closes every subscription.
func (o *Observer) drainLoop() {
	defer close(o.drainedCh)
	tick := time.NewTicker(o.poll)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			o.drain()
		case <-o.done:
			o.drain()
			o.shutdownSubs()
			return
		}
	}
}

// drain empties the published portion of the ring into frames and
// fans them out; it is only ever called from the drain goroutine. It
// chases the head while each frame gets at least a publication batch
// (spFlushBatch events, or a whole frame), and leaves a trickle for the
// next tick, so emitters publishing one event at a time cannot keep it
// spinning out one-event frames.
func (o *Observer) drain() {
	for {
		f := o.newFrame()
		h := o.head.Load()
		pos := o.tail.Load()
		for pos != h && len(f.Events) < o.frameMax {
			f.Events = append(f.Events, o.buf[pos&o.mask])
			pos++
		}
		o.tail.Store(pos)
		n := len(f.Events)
		if n == 0 {
			o.free(f)
			return
		}
		if o.logOn {
			o.logMu.Lock()
			o.log = append(o.log, f.Events...)
			o.logMu.Unlock()
		}
		o.fanout(f)
		if n < min(spFlushBatch, o.frameMax) {
			return
		}
	}
}

// fanout delivers one frame to every subscriber without ever blocking:
// a full subscription loses its oldest frame (counted) to make room;
// if the channel is somehow still full the new frame is counted
// against the subscriber instead. Frame references equal the
// subscriber count, so the last Release recycles the backing slice.
func (o *Observer) fanout(f *Frame) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.subs) == 0 {
		o.free(f)
		return
	}
	f.refs.Store(int32(len(o.subs)))
	for _, sub := range o.subs {
		select {
		case sub.ch <- f:
			continue
		default:
		}
		// Drop-oldest: pop one buffered frame, then retry once. The
		// drainer is the only sender, so the retry can only fail
		// against a consumer that raced a frame back in — count the
		// new frame dropped in that case.
		select {
		case old := <-sub.ch:
			sub.dropped.Add(1)
			o.droppedFrames.Add(1)
			old.Release()
		default:
		}
		select {
		case sub.ch <- f:
		default:
			sub.dropped.Add(1)
			o.droppedFrames.Add(1)
			f.Release()
		}
	}
}

// shutdownSubs closes every subscription channel after the final
// drain; late Subscribe calls get an already-closed channel.
func (o *Observer) shutdownSubs() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.closed = true
	for _, sub := range o.subs {
		if !sub.closed {
			sub.closed = true
			close(sub.ch)
		}
	}
	o.subs = nil
}

// Close stops the drain goroutine after a final drain, closes every
// subscription channel and returns once the drainer has exited. Emit
// remains safe after Close: the ring fills and drops (counted), and
// nothing is delivered. Closing twice is fine.
func (o *Observer) Close() {
	if o == nil {
		return
	}
	o.closeOnce.Do(func() { close(o.done) })
	<-o.drainedCh
}

// Frame is one drained batch of events, shared by reference among the
// subscribers it was delivered to. Call Release exactly once per
// received frame; the last reference returns it to the pool.
type Frame struct {
	Events []Event
	o      *Observer
	refs   atomic.Int32
}

// Release returns the caller's reference; the frame must not be
// touched afterwards.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	if f.refs.Add(-1) <= 0 {
		f.o.free(f)
	}
}

func (o *Observer) newFrame() *Frame {
	if f, ok := o.pool.Get().(*Frame); ok {
		return f
	}
	return &Frame{Events: make([]Event, 0, o.frameMax), o: o}
}

func (o *Observer) free(f *Frame) {
	f.Events = f.Events[:0]
	f.refs.Store(0)
	o.pool.Put(f)
}

// Subscription is one consumer of the event feed. Receive frames from
// C and Release each one; a subscriber that stops receiving loses its
// oldest frames (counted by Dropped) but never slows the emitters or
// the drainer. C is closed by Subscription.Close or Observer.Close.
type Subscription struct {
	// C delivers drained frames, oldest first.
	C       <-chan *Frame
	ch      chan *Frame
	o       *Observer
	dropped atomic.Uint64
	closed  bool // guarded by o.mu
}

// Subscribe registers a consumer with a buffer of buf frames (minimum
// 1; 16 when buf < 1). On an already-closed Observer the returned
// subscription's channel is already closed.
func (o *Observer) Subscribe(buf int) *Subscription {
	if buf < 1 {
		buf = 16
	}
	sub := &Subscription{ch: make(chan *Frame, buf), o: o}
	sub.C = sub.ch
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		sub.closed = true
		close(sub.ch)
		return sub
	}
	o.subs = append(o.subs, sub)
	return sub
}

// Dropped reports how many frames this subscriber has lost to
// drop-oldest replacement.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close unregisters the subscription, closes C and releases any
// frames still buffered. Closing twice (or after Observer.Close) is
// fine.
func (s *Subscription) Close() {
	o := s.o
	o.mu.Lock()
	if !s.closed {
		s.closed = true
		for i, x := range o.subs {
			if x == s {
				o.subs = append(o.subs[:i], o.subs[i+1:]...)
				break
			}
		}
		close(s.ch)
	}
	o.mu.Unlock()
	for f := range s.ch {
		f.Release()
	}
}

// DroppedEvents reports emits refused by a full ring.
func (o *Observer) DroppedEvents() uint64 {
	if o == nil {
		return 0
	}
	return o.droppedEvents.Load()
}

// DroppedFrames reports frames lost to slow subscribers, summed over
// all subscriptions past and present.
func (o *Observer) DroppedFrames() uint64 {
	if o == nil {
		return 0
	}
	return o.droppedFrames.Load()
}

// Subscribers reports the current subscription count.
func (o *Observer) Subscribers() int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.subs)
}

// Events returns a copy of the retained event log (Options.Log). After
// Close (preceded by Flush in single-producer mode) it is the complete
// drained history minus ring drops.
func (o *Observer) Events() []Event {
	if o == nil {
		return nil
	}
	o.logMu.Lock()
	defer o.logMu.Unlock()
	return append([]Event(nil), o.log...)
}
