// Conservative-lookahead parallel event execution.
//
// A ParallelQueue drives P logical processes (LPs) — each an ordinary
// typed-heap Queue — from W worker goroutines. The design requirement,
// inherited from every byte-identity test wall in this repository, is that
// the WORKER COUNT CAN NEVER INFLUENCE A SIMULATED RESULT: workers only
// decide which OS thread executes which LP, never the order of events
// within an LP, never the order in which cross-LP messages enter a heap.
//
// Two execution regimes cover the simulator's needs:
//
//   - Independent LPs (lookahead 0): the LPs share no simulation state —
//     each is a complete conflict domain (one run's calendar plus its
//     private network). Run drives every LP's calendar to exhaustion
//     concurrently. This is the regime of the batch runners: figure
//     trials, sweep points, and server jobs are embarrassingly parallel,
//     and each LP's execution is the byte-exact sequential execution.
//
//   - Windowed LPs (lookahead > 0): LPs exchange timestamped events
//     through bounded channels, and execution proceeds in conservative
//     windows [T, T+lookahead) where T is the global minimum pending
//     event time. The lookahead is the caller's lower bound on any
//     cross-LP scheduling delay (in the machine model: the minimum
//     channel service/startup time), so no message can land inside the
//     window that produced it. At each window barrier the staged
//     messages are applied in canonical (time, sender, sequence) order —
//     the merge is a pure function of the simulation, not of goroutine
//     scheduling, which is the determinism argument (DESIGN.md §15).
package event

import (
	"fmt"
	"sort"
	"sync"
)

// defaultInboxCap bounds each LP's cross-event channel. Senders block when
// an inbox fills mid-window; the per-LP drainer goroutines guarantee the
// capacity is only a throttle, never a deadlock.
const defaultInboxCap = 1024

// crossEvent is one timestamped event in flight between LPs.
type crossEvent struct {
	at   Time
	from int    // sending LP
	seq  uint64 // sender-local sequence — (at, from, seq) is a total order
	op   Op
}

// parLP is one logical process: a calendar plus its cross-event plumbing.
type parLP struct {
	q     *Queue
	inbox chan crossEvent
	// staged holds drained-but-unapplied cross events; owned by the LP's
	// drainer goroutine during a window, by the barrier after it.
	staged []crossEvent
	seq    uint64 // outgoing sequence counter (sender-side, single-threaded)
	steps  int
	final  Time
	err    error
}

// ParallelQueue coordinates P logical processes across W workers. Build
// one with NewParallel, register per-LP calendars with Add, then call Run
// exactly once. The zero value is not usable.
type ParallelQueue struct {
	workers   int
	lookahead Time
	lps       []*parLP
}

// NewParallel creates a parallel executor. workers < 1 selects 1. A zero
// lookahead declares the LPs fully independent (Cross panics); a positive
// lookahead enables windowed execution where every cross-LP delay must be
// at least the lookahead.
func NewParallel(workers int, lookahead Time) *ParallelQueue {
	if workers < 1 {
		workers = 1
	}
	if lookahead < 0 {
		panic("event: negative lookahead")
	}
	return &ParallelQueue{workers: workers, lookahead: lookahead}
}

// Add registers q as a logical process and returns its LP id. The caller
// must not drive q directly while Run executes.
func (pq *ParallelQueue) Add(q *Queue) int {
	pq.lps = append(pq.lps, &parLP{q: q, inbox: make(chan crossEvent, defaultInboxCap)})
	return len(pq.lps) - 1
}

// Workers returns the configured worker count.
func (pq *ParallelQueue) Workers() int { return pq.workers }

// Lookahead returns the configured conservative lookahead.
func (pq *ParallelQueue) Lookahead() Time { return pq.lookahead }

// NumLPs returns the number of registered logical processes.
func (pq *ParallelQueue) NumLPs() int { return len(pq.lps) }

// Cross schedules op (or fn) on LP to, d after LP from's current time.
// It may only be called from inside an event executing on LP from during
// Run, and d must be at least the lookahead — the conservative contract
// that makes the window barrier safe. The event travels through to's
// bounded inbox channel and is applied at the next window barrier in
// canonical (time, sender, seq) order.
func (pq *ParallelQueue) Cross(from, to int, d Time, op Op, fn func()) {
	if pq.lookahead <= 0 {
		panic("event: Cross on an independent (zero-lookahead) ParallelQueue")
	}
	if d < pq.lookahead {
		panic(fmt.Sprintf("event: cross-LP delay %v below lookahead %v", d, pq.lookahead))
	}
	if op == nil {
		op = funcOp(fn)
	}
	src := pq.lps[from]
	src.seq++
	pq.lps[to].inbox <- crossEvent{at: src.q.Now() + d, from: from, seq: src.seq, op: op}
}

// Run drives every LP until all calendars are empty (and, in windowed
// mode, no cross events remain in flight), under the same watchdog
// contract as Queue.RunBudget: maxSteps events per LP (<= 0 selects
// DefaultMaxSteps) and no event beyond maxTime (<= 0 means unbounded).
// It returns the latest simulated time reached by any LP and the first
// budget Diagnostic in LP order, if any. Results are independent of the
// worker count by construction.
func (pq *ParallelQueue) Run(maxSteps int, maxTime Time) (Time, error) {
	if len(pq.lps) == 0 {
		return 0, nil
	}
	if pq.lookahead > 0 {
		return pq.runWindowed(maxSteps, maxTime)
	}
	return pq.runIndependent(maxSteps, maxTime)
}

// runIndependent drives each LP's calendar to exhaustion on the worker
// pool. LPs share no state, so each LP's execution is exactly its
// sequential execution; the aggregation below is a deterministic fold
// over per-LP outcomes in LP order.
func (pq *ParallelQueue) runIndependent(maxSteps int, maxTime Time) (Time, error) {
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(pq.workers, len(pq.lps)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range work {
				lp := pq.lps[id]
				lp.final, lp.err = lp.q.RunBudget(maxSteps, maxTime)
			}
		}()
	}
	for id := range pq.lps {
		work <- id
	}
	close(work)
	wg.Wait()

	var end Time
	for _, lp := range pq.lps {
		if lp.final > end {
			end = lp.final
		}
	}
	for id, lp := range pq.lps {
		if lp.err != nil {
			return end, fmt.Errorf("event: LP %d: %w", id, lp.err)
		}
	}
	return end, nil
}

// runWindowed executes conservative lookahead windows: find the global
// minimum pending time T, execute every local event with time < T +
// lookahead across the worker pool (cross events drain concurrently into
// per-target staging), then apply the staged events at the barrier in
// canonical order. Lookahead > 0 guarantees each window executes at least
// the event at T, so the loop always progresses.
func (pq *ParallelQueue) runWindowed(maxSteps int, maxTime Time) (Time, error) {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	totalSteps := 0
	var now Time
	for {
		// Global minimum pending event time. Staged queues are empty
		// here: every barrier applies them before the next iteration.
		T, any := Time(0), false
		for _, lp := range pq.lps {
			if t, ok := lp.q.peekTime(); ok && (!any || t < T) {
				T, any = t, true
			}
		}
		if !any {
			return now, nil
		}
		if T > now {
			now = T
		}
		if maxTime > 0 && T > maxTime {
			return now, pq.diag(fmt.Sprintf("time budget %s exhausted", maxTime.Micros()), totalSteps, T)
		}
		horizon := T + pq.lookahead

		// Parallel phase: workers execute window-local events; one
		// drainer per LP pulls cross events off the bounded inbox so a
		// full channel throttles senders instead of deadlocking them.
		stop := make(chan struct{})
		var drainers sync.WaitGroup
		for _, lp := range pq.lps {
			drainers.Add(1)
			go func(lp *parLP) {
				defer drainers.Done()
				for {
					select {
					case ev := <-lp.inbox:
						lp.staged = append(lp.staged, ev)
					case <-stop:
						return
					}
				}
			}(lp)
		}
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < min(pq.workers, len(pq.lps)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for id := range work {
					lp := pq.lps[id]
					for lp.q.stepIfBefore(horizon) {
						lp.steps++
					}
					if lp.q.now > lp.final {
						lp.final = lp.q.now
					}
				}
			}()
		}
		for id := range pq.lps {
			work <- id
		}
		close(work)
		wg.Wait()
		close(stop)
		drainers.Wait()

		// Barrier: collect stragglers (no senders remain), then apply
		// in canonical order. Sorting by (time, sender, sender-seq)
		// makes heap insertion order — and therefore FIFO tie-breaking
		// among same-time cross events — a pure function of the
		// simulation.
		windowSteps := 0
		for _, lp := range pq.lps {
			for {
				select {
				case ev := <-lp.inbox:
					lp.staged = append(lp.staged, ev)
					continue
				default:
				}
				break
			}
			windowSteps += lp.steps
			sort.Slice(lp.staged, func(i, j int) bool {
				a, b := lp.staged[i], lp.staged[j]
				if a.at != b.at {
					return a.at < b.at
				}
				if a.from != b.from {
					return a.from < b.from
				}
				return a.seq < b.seq
			})
			for _, ev := range lp.staged {
				if ev.at < horizon {
					panic(fmt.Sprintf("event: cross event at %v inside window ending %v", ev.at, horizon))
				}
				lp.q.schedule(ev.at, ev.op)
			}
			lp.staged = lp.staged[:0]
		}
		totalSteps = windowSteps
		if totalSteps >= maxSteps {
			return now, pq.diag(fmt.Sprintf("step budget %d exhausted", maxSteps), totalSteps, T)
		}
		if pq.lps[0].q.now > now {
			now = pq.lps[0].q.now
		}
		for _, lp := range pq.lps {
			if lp.q.now > now {
				now = lp.q.now
			}
		}
	}
}

// diag aggregates a watchdog Diagnostic across LPs: total steps, total
// pending events, and every registered per-LP diagnoser's snapshot.
func (pq *ParallelQueue) diag(reason string, steps int, at Time) *Diagnostic {
	d := &Diagnostic{Reason: reason, Steps: steps, Now: at}
	for id, lp := range pq.lps {
		d.Pending += lp.q.Len()
		if lp.q.diagnose != nil {
			if s := lp.q.diagnose(); s != "" {
				if d.Detail != "" {
					d.Detail += "\n"
				}
				d.Detail += fmt.Sprintf("LP %d: %s", id, s)
			}
		}
	}
	return d
}
