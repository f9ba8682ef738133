// Package event provides the discrete-event simulation kernel underlying
// the wormhole network simulator — the role CSIM played for the paper's
// MultiSim tool. Events execute in nondecreasing time order with FIFO
// tie-breaking, making every simulation deterministic.
package event

import (
	"fmt"
	"math/bits"

	"hypercube/internal/metrics"
)

// Time is simulated time in nanoseconds from the start of the simulation.
type Time int64

// Common durations for readability when building configurations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros renders t as a decimal microsecond count (e.g. "163.84us").
func (t Time) Micros() string {
	return fmt.Sprintf("%.2fus", float64(t)/float64(Microsecond))
}

// Seconds returns t in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Op is a pre-bound event: an object that knows how to run itself when its
// time comes. Scheduling an Op (AtOp/AfterOp) allocates nothing, whereas
// scheduling a closure (At/After) allocates the closure. Simulators on the
// hot path (wormhole's per-hop header advance and tail-drain events,
// ncube's per-send software setup) implement Op on objects they already
// own.
type Op interface {
	// RunEvent executes the event at its scheduled time.
	RunEvent()
}

// funcOp runs a closure as an Op. A func value is one pointer, so the
// conversion to Op allocates nothing.
type funcOp func()

func (f funcOp) RunEvent() { f() }

// arity is the calendar heap's branching factor. A 4-ary heap is half as
// deep as a binary one and its sibling keys are adjacent in memory; pop's
// tournament over a full family of siblings is written for four.
const arity = 4

// key is one calendar entry as the heap orders it. It holds no pointer, so
// moving it inside the heap costs the garbage collector nothing; the event
// itself waits in the payload slab at index slot.
type key struct {
	at   Time
	seq  uint64
	slot uint32
}

// before is the calendar's total order: time, then FIFO sequence. It has no
// ties, so the execution order is unique and independent of the heap shape.
// No event is ever scheduled at a negative time (nothing goes before now,
// which starts at 0), so (at, seq) compares as one unsigned 128-bit number:
// a subtract-with-borrow chain, without a data-dependent branch.
func before(a, b *key) bool {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow != 0
}

// b2i is 1 for true and 0 for false; the compiler emits it as a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Queue is a single-threaded event calendar. The zero value is ready to use.
//
// The calendar is a 4-ary min-heap of pointer-free keys over a slab of
// events. The keys in h[:len(h)] are the pending events; their slots and
// the slots recorded in h[len(h):len(ops)] together are a permutation of
// [0, len(ops)), so the capacity past the heap's end doubles as the free
// list and a push takes its slot from h[len(h)]. Both slices grow together
// and keep their capacity across Reset for pooled reuse across simulation
// runs.
type Queue struct {
	h        []key
	ops      []Op
	now      Time
	seq      uint64
	diagnose func() string

	// Observability instruments; nil (the default) keeps the hot loop at
	// one pointer check per operation.
	mSteps *metrics.Counter
	mDepth *metrics.Gauge
}

// push files op at time at and restores the heap order by moving a hole up
// from the end.
func (q *Queue) push(at Time, op Op) {
	n := len(q.h)
	slot := uint32(n) // a new slot, unless a freed one waits past the heap's end
	if n < len(q.ops) {
		slot = q.h[:n+1][n].slot
	} else {
		if n == cap(q.ops) {
			q.grow()
		}
		q.ops = q.ops[:n+1]
	}
	q.h = q.h[:n+1]
	q.ops[slot] = op
	k := key{at: at, seq: q.seq, slot: slot}
	h := q.h
	i := n
	for i > 0 {
		p := (i - 1) / arity
		if !before(&k, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
}

// grow doubles the calendar's capacity, sizing the heap and the slab
// together: both always have the same capacity, so one check guards both.
func (q *Queue) grow() {
	c := max(2*cap(q.ops), 8)
	h := make([]key, len(q.h), c)
	copy(h, q.h)
	ops := make([]Op, len(q.ops), c)
	copy(ops, q.ops)
	q.h, q.ops = h, ops
}

// pop removes the earliest entry and returns its time and event. The
// event's slab entry is cleared and its slot filed past the heap's end.
func (q *Queue) pop() (Time, Op) {
	h := q.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	// Move the hole from the root down to where last belongs.
	i := 0
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		kids := h[c:min(c+arity, n)]
		m := 0
		if len(kids) == arity {
			// A full family: a branch-free tournament.
			m = b2i(before(&kids[1], &kids[0]))
			m2 := 2 + b2i(before(&kids[3], &kids[2]))
			m += b2i(before(&kids[m2], &kids[m])) * (m2 - m)
		} else {
			for j := 1; j < len(kids); j++ {
				if before(&kids[j], &kids[m]) {
					m = j
				}
			}
		}
		if !before(&kids[m], &last) {
			break
		}
		h[i] = kids[m]
		i = c + m
	}
	h[i] = last
	h[n] = key{slot: top.slot}
	q.h = q.h[:n]
	op := q.ops[top.slot]
	q.ops[top.slot] = nil
	return top.at, op
}

// SetMetrics wires the queue into a metrics registry: every executed event
// increments "event_steps" and the calendar's peak length lands in
// "event_queue_depth_max". A nil registry disables instrumentation.
func (q *Queue) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		q.mSteps, q.mDepth = nil, nil
		return
	}
	q.mSteps = reg.Counter("event_steps")
	q.mDepth = reg.Gauge("event_queue_depth_max")
}

// Now returns the current simulated time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Cap returns how many events the calendar holds before it must grow;
// Reset keeps it.
func (q *Queue) Cap() int { return cap(q.ops) }

// schedule validates t and inserts one calendar entry.
func (q *Queue) schedule(t Time, op Op) {
	if t < q.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, q.now))
	}
	q.seq++
	q.push(t, op)
	if q.mDepth != nil {
		q.mDepth.SetMax(int64(len(q.h)))
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently corrupt causality.
func (q *Queue) At(t Time, fn func()) { q.schedule(t, funcOp(fn)) }

// After schedules fn to run d after the current time.
func (q *Queue) After(d Time, fn func()) {
	if d < 0 {
		panic("event: negative delay")
	}
	q.schedule(q.now+d, funcOp(fn))
}

// AtOp schedules op to run at absolute time t without allocating.
func (q *Queue) AtOp(t Time, op Op) { q.schedule(t, op) }

// AfterOp schedules op to run d after the current time without allocating.
func (q *Queue) AfterOp(d Time, op Op) {
	if d < 0 {
		panic("event: negative delay")
	}
	q.schedule(q.now+d, op)
}

// Step runs the single earliest event, advancing the clock. It reports
// whether an event was available.
func (q *Queue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	at, op := q.pop()
	q.now = at
	if q.mSteps != nil {
		q.mSteps.Inc()
	}
	op.RunEvent()
	return true
}

// peekTime returns the earliest pending event time, if any.
func (q *Queue) peekTime() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// stepIfBefore runs the earliest event only if it lies strictly before
// horizon, reporting whether one ran. This is the window primitive of the
// parallel executor: each logical process drains exactly its safe window.
func (q *Queue) stepIfBefore(horizon Time) bool {
	if len(q.h) == 0 || q.h[0].at >= horizon {
		return false
	}
	return q.Step()
}

// Reset returns the queue to its zero state while keeping the calendar's
// capacity, so pooled runs reuse it. The event slab is zeroed (a
// watchdog-aborted run leaves events behind; their references must not
// outlive the run), and instruments and the diagnoser are detached —
// reattach them per run.
func (q *Queue) Reset() {
	clear(q.ops)
	q.ops = q.ops[:0]
	q.h = q.h[:0]
	q.now, q.seq = 0, 0
	q.diagnose = nil
	q.mSteps, q.mDepth = nil, nil
}

// Run executes events until the calendar is empty and returns the final
// simulated time.
func (q *Queue) Run() Time {
	for q.Step() {
	}
	return q.now
}

// Watchdog defaults for RunBudget.
const (
	// DefaultMaxSteps bounds a budgeted run when the caller passes
	// maxSteps <= 0: generous for every legitimate simulation in this
	// repository (the 12-cube broadcast soak executes ~10^5 events), yet
	// it converts an accidentally unbounded event loop into a diagnostic
	// within seconds instead of hanging CI forever.
	DefaultMaxSteps = 1 << 26
	// NoProgressLimit is the number of consecutive events executed at a
	// single simulated instant before RunBudget declares a livelock: real
	// schedules always advance the clock (channel crossings and software
	// overheads take time), so millions of same-instant events mean a
	// zero-delay event cycle.
	NoProgressLimit = 1 << 22
)

// Diagnostic describes a watchdog abort: which budget tripped, where the
// simulation stood, and — when a diagnoser is registered — a snapshot of
// the stalled resources (e.g. the network's held channels).
type Diagnostic struct {
	// Reason names the exhausted budget.
	Reason string
	// Steps is the number of events executed by this run.
	Steps int
	// Now is the simulated time at the abort.
	Now Time
	// Pending is the number of events still queued.
	Pending int
	// Detail is the diagnoser's snapshot ("" when none is registered).
	Detail string
}

func (d *Diagnostic) Error() string {
	s := fmt.Sprintf("event: watchdog: %s after %d steps at %s (%d events pending)",
		d.Reason, d.Steps, d.Now.Micros(), d.Pending)
	if d.Detail != "" {
		s += "\n" + d.Detail
	}
	return s
}

// SetDiagnoser registers a snapshot function whose output is attached to
// watchdog Diagnostics (nil disables). Simulators register their resource
// state here — e.g. wormhole.Network's held-channel dump — so a budget trip
// explains *what* is wedged, not just that something is.
func (q *Queue) SetDiagnoser(fn func() string) { q.diagnose = fn }

func (q *Queue) diag(reason string, steps int) *Diagnostic {
	d := &Diagnostic{Reason: reason, Steps: steps, Now: q.now, Pending: len(q.h)}
	if q.diagnose != nil {
		d.Detail = q.diagnose()
	}
	return d
}

// RunBudget executes events until the calendar is empty, like Run, but
// under a watchdog: at most maxSteps events (<= 0 selects
// DefaultMaxSteps), no event beyond maxTime (<= 0 means unbounded), and no
// more than NoProgressLimit consecutive events at one simulated instant.
// Exceeding any budget returns the current time and a *Diagnostic instead
// of spinning or stalling forever.
func (q *Queue) RunBudget(maxSteps int, maxTime Time) (Time, error) {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	steps, sameTime := 0, 0
	last := q.now
	for len(q.h) > 0 {
		if maxTime > 0 && q.h[0].at > maxTime {
			return q.now, q.diag(fmt.Sprintf("time budget %s exhausted", maxTime.Micros()), steps)
		}
		q.Step()
		steps++
		if q.now == last {
			sameTime++
			if sameTime >= NoProgressLimit {
				return q.now, q.diag(fmt.Sprintf("no progress: %d events without advancing time", sameTime), steps)
			}
		} else {
			sameTime = 0
			last = q.now
		}
		if steps >= maxSteps {
			return q.now, q.diag(fmt.Sprintf("step budget %d exhausted", maxSteps), steps)
		}
	}
	return q.now, nil
}

// MustRun is RunBudget for call sites where exceeding the budget can only
// mean a simulator bug: it panics with the Diagnostic. Every internal
// simulation loop runs under it so no bug can hang the process.
func (q *Queue) MustRun(maxSteps int, maxTime Time) Time {
	t, err := q.RunBudget(maxSteps, maxTime)
	if err != nil {
		panic(err)
	}
	return t
}

// RunUntil executes events with time <= deadline; later events stay queued.
// The clock is left at min(deadline, last executed event time >= now).
func (q *Queue) RunUntil(deadline Time) {
	for len(q.h) > 0 && q.h[0].at <= deadline {
		q.Step()
	}
	if q.now < deadline {
		q.now = deadline
	}
}
