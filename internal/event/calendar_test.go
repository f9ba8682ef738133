package event

import (
	"math/rand"
	"sort"
	"testing"
)

// calProgram is a randomized event program run twice: once on a Queue and
// once on a reference calendar that stable-sorts pending events by
// (time, insertion). Each event's children — how many, their delays, and
// whether they go through At, AtOp, After or AfterOp — are a function of
// the event's id, so both runs build the same program as long as they
// execute events in the same order.
type calProgram struct {
	seed  int64
	limit int // events with id >= limit schedule no children
}

type calChild struct {
	method int // 0 At, 1 AtOp, 2 After, 3 AfterOp
	delay  Time
}

func (p calProgram) children(id int) []calChild {
	if id >= p.limit {
		return nil
	}
	r := rand.New(rand.NewSource(p.seed*1_000_003 + int64(id)))
	kids := make([]calChild, r.Intn(3)+1)
	delays := []Time{0, 0, 1, 1, 2, 5, 5, 40}
	for i := range kids {
		kids[i] = calChild{method: r.Intn(4), delay: delays[r.Intn(len(delays))]}
	}
	return kids
}

// calOp runs one program event through the Op path.
type calOp struct {
	run *calRun
	id  int
}

func (o *calOp) RunEvent() { o.run.fire(o.id) }

// calRun executes a program on a Queue and records the firing order.
type calRun struct {
	p    calProgram
	q    *Queue
	next int
	got  []int
}

func (c *calRun) schedule(method int, at Time) {
	id := c.next
	c.next++
	fn := func() { c.fire(id) }
	switch method {
	case 0:
		c.q.At(at, fn)
	case 1:
		c.q.AtOp(at, &calOp{run: c, id: id})
	case 2:
		c.q.After(at-c.q.Now(), fn)
	default:
		c.q.AfterOp(at-c.q.Now(), &calOp{run: c, id: id})
	}
}

func (c *calRun) fire(id int) {
	c.got = append(c.got, id)
	for _, k := range c.p.children(id) {
		c.schedule(k.method, c.q.Now()+k.delay)
	}
}

// refCal is the reference calendar: pending events in insertion order,
// the earliest found by a stable sort on time.
type refCal struct {
	p       calProgram
	now     Time
	next    int
	pending []refEntry
	got     []int
}

type refEntry struct {
	at Time
	id int
}

func (r *refCal) schedule(at Time) {
	r.pending = append(r.pending, refEntry{at: at, id: r.next})
	r.next++
}

func (r *refCal) runUntil(deadline Time) {
	for {
		sort.SliceStable(r.pending, func(i, j int) bool { return r.pending[i].at < r.pending[j].at })
		if len(r.pending) == 0 || r.pending[0].at > deadline {
			break
		}
		e := r.pending[0]
		r.pending = r.pending[1:]
		r.now = e.at
		r.got = append(r.got, e.id)
		for _, k := range r.p.children(e.id) {
			r.schedule(r.now + k.delay)
		}
	}
	if r.now < deadline {
		r.now = deadline
	}
}

func (r *refCal) reset() { r.pending, r.now = nil, 0 }

// The calendar executes every program in the reference's order: time,
// then insertion, across all four scheduling calls, handlers that schedule
// at their own instant, partial runs, and a Reset in the middle of a run.
func TestCalendarMatchesStableSortReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		p := calProgram{seed: seed, limit: 300 + int(seed)*20}
		var q Queue
		run := &calRun{p: p, q: &q}
		ref := &refCal{p: p}
		drv := rand.New(rand.NewSource(seed))
		resetAt := drv.Intn(6)
		for round := 0; round < 8; round++ {
			if round == resetAt {
				q.Reset()
				ref.reset()
				checkSlab(t, &q)
			}
			// External arrivals between partial runs, many at one instant.
			for i := drv.Intn(20); i > 0; i-- {
				at := q.Now() + Time(drv.Intn(4))
				run.schedule(drv.Intn(4), at)
				ref.schedule(at)
			}
			deadline := q.Now() + Time(drv.Intn(30))
			q.RunUntil(deadline)
			ref.runUntil(deadline)
			if q.Now() != ref.now || q.Len() != len(ref.pending) {
				t.Fatalf("seed %d round %d: now %v len %d, reference now %v len %d",
					seed, round, q.Now(), q.Len(), ref.now, len(ref.pending))
			}
			checkSlab(t, &q)
		}
		q.MustRun(0, 0)
		ref.runUntil(1 << 62)
		if len(run.got) != len(ref.got) {
			t.Fatalf("seed %d: %d events fired, reference %d", seed, len(run.got), len(ref.got))
		}
		for i := range run.got {
			if run.got[i] != ref.got[i] {
				t.Fatalf("seed %d: event %d is #%d, reference #%d", seed, i, run.got[i], ref.got[i])
			}
		}
		checkSlab(t, &q)
	}
}

// checkSlab asserts the calendar's storage invariants: exactly the pending
// events are reachable from the slab, and the slots recorded in the heap
// and past its end are a permutation of the slab's indices.
func checkSlab(t *testing.T, q *Queue) {
	t.Helper()
	live := 0
	for _, op := range q.ops[:cap(q.ops)] {
		if op != nil {
			live++
		}
	}
	if live != q.Len() {
		t.Fatalf("%d slab entries reachable, %d events pending", live, q.Len())
	}
	seen := make([]bool, len(q.ops))
	for i, k := range q.h[:len(q.ops)] {
		if int(k.slot) >= len(seen) || seen[k.slot] {
			t.Fatalf("key %d holds slot %d twice or out of range", i, k.slot)
		}
		seen[k.slot] = true
		if i < q.Len() && q.ops[k.slot] == nil {
			t.Fatalf("pending key %d points at an empty slot", i)
		}
	}
}

// No event stays reachable from the calendar once it has run, nor any
// pending one after Reset — the slab would otherwise pin whatever the
// closures and ops captured — and Reset keeps every slice's capacity.
func TestCalendarReleasesPayloads(t *testing.T) {
	var q Queue
	for i := 0; i < 200; i++ {
		q.At(Time(i%7), func() {})
		q.AtOp(Time(i%5), &countOp{q: &q})
	}
	checkSlab(t, &q)
	for i := 0; i < 150; i++ {
		q.Step()
		checkSlab(t, &q)
	}
	hc, oc := cap(q.h), cap(q.ops)
	q.Reset()
	for i, op := range q.ops[:cap(q.ops)] {
		if op != nil {
			t.Fatalf("slab entry %d still reachable after Reset", i)
		}
	}
	if cap(q.h) != hc || cap(q.ops) != oc || q.Len() != 0 {
		t.Errorf("Reset: caps %d/%d (want %d/%d), len %d", cap(q.h), cap(q.ops), hc, oc, q.Len())
	}
	q.AfterOp(3, &countOp{q: &q})
	q.After(1, func() {})
	checkSlab(t, &q)
	q.MustRun(0, 0)
	checkSlab(t, &q)
}

type nopOp struct{}

func (nopOp) RunEvent() {}

// Once the calendar has grown, scheduling an Op or an existing closure and
// running it allocates nothing, at any depth.
func TestCalendarSteadyStateAllocatesNothing(t *testing.T) {
	var q Queue
	op := nopOp{}
	fn := func() {}
	for i := 0; i < 170; i++ {
		q.AtOp(Time(1000+i), op)
	}
	q.AtOp(0, op)
	q.Step()
	if n := testing.AllocsPerRun(1000, func() {
		q.AtOp(q.Now(), op)
		q.Step()
	}); n != 0 {
		t.Errorf("AtOp+Step: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		q.At(q.Now(), fn)
		q.Step()
	}); n != 0 {
		t.Errorf("At(existing closure)+Step: %v allocs, want 0", n)
	}
}
