package ncube

import (
	"fmt"
	"sync"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/topology"
	"hypercube/internal/wormhole"
)

// Session is the simulator's one multicast executor: a pooled
// shared-calendar run environment for executing one or MANY collective
// operations on ONE simulated network, each injected at its own simulated
// time. Every entry point that runs a tree — Run, RunMany, RunParallel, the
// serving tier, the traffic engine — is a short composition over a
// borrowed session: callers schedule injections (InjectTree, or arbitrary
// callbacks via At) and then drive the whole scenario with Run.
//
// A Session is single-threaded, like the event kernel beneath it. Borrow
// one with NewSession, schedule work, call Run exactly once, read results,
// then Release it back to the pool (skip Release if Run panicked).
type Session struct {
	q      event.Queue
	net    *wormhole.Network
	p      Params
	ins    Instrumentation
	diagFn func() string // s.Diagnose, bound once per pooled session

	// extraDiag, when set, is appended to the network diagnoser's output
	// on a watchdog trip (the traffic engine contributes faulted arcs and
	// per-op progress).
	extraDiag func() string

	// ops and nodes are the slabs every InjectTree carves its treeOp and
	// dense node table from, and steps the slab step programs carve their
	// messages from. They survive Release cleared and truncated, so a
	// pooled session executes trees and collectives without per-message
	// allocations.
	ops   []treeOp
	nodes []opNode
	steps []Step

	// block is the session's payload block (see Payload), lent to at
	// most one borrower at a time; it survives Release.
	block     []float64
	blockBusy bool
}

// MaxPayloadBlock is the largest payload, in elements (8 MiB), a session
// keeps across runs. Larger borrows get heap that the session never
// keeps, so a pooled session retains at most this much payload memory.
const MaxPayloadBlock = 1 << 20

var sessionPool = sync.Pool{New: func() any { return new(Session) }}

// NewSession borrows a pooled session and rebinds it to one scenario's
// machine, cube, and instrumentation. It panics on malformed params.
func NewSession(p Params, cube topology.Cube, ins Instrumentation) *Session {
	return sessionPool.Get().(*Session).bind(p, cube, ins)
}

// bind rebinds a new or scrubbed session to one scenario.
func (s *Session) bind(p Params, cube topology.Cube, ins Instrumentation) *Session {
	if err := p.Err(); err != nil {
		panic(err)
	}
	cfg := p.NetConfig()
	s.q.Reset()
	if s.net == nil {
		s.net = wormhole.New(&s.q, cube, cfg)
		s.diagFn = s.Diagnose
	} else {
		s.net.Reset(&s.q, cube, cfg)
	}
	s.p, s.ins = p, ins
	s.extraDiag = nil
	if ins.Tracer != nil {
		s.net.SetTracer(ins.Tracer)
	}
	if ins.Metrics != nil {
		s.q.SetMetrics(ins.Metrics)
		s.net.SetMetrics(ins.Metrics)
	}
	return s
}

// Network exposes the shared interconnect.
func (s *Session) Network() *wormhole.Network { return s.net }

// Params returns the machine configuration bound at NewSession.
func (s *Session) Params() Params { return s.p }

// Now returns the current simulated time.
func (s *Session) Now() event.Time { return s.q.Now() }

// SetFaults installs a fault model on the shared network for this
// scenario (nil restores the fault-free network). Fault state never
// survives the session: NewSession resets the network's fault model, and
// Release detaches it again so a recycled session cannot leak faults into
// its next borrower.
func (s *Session) SetFaults(f wormhole.FaultModel) { s.net.SetFaults(f) }

// SetExtraDiagnoser appends fn's output to the watchdog diagnostics of a
// wedged run, after the network's held-channel snapshot (nil removes it).
func (s *Session) SetExtraDiagnoser(fn func() string) { s.extraDiag = fn }

// Diagnose renders the session's stall state: the network's held-channel
// snapshot plus any extra diagnoser installed by the scenario driver.
func (s *Session) Diagnose() string {
	d := s.net.Diagnose()
	if s.extraDiag != nil {
		d += "\n" + s.extraDiag()
	}
	return d
}

// At schedules fn on the shared calendar at absolute time t.
func (s *Session) At(t event.Time, fn func()) { s.q.At(t, fn) }

// Run drives the calendar to exhaustion under the event watchdog
// (see event.Queue.RunBudget; maxSteps <= 0 selects the default budget,
// maxTime <= 0 is unbounded). It attaches the session diagnoser so a
// wedged scenario reports its held channels, and flushes any tracer.
func (s *Session) Run(maxSteps int, maxTime event.Time) error {
	s.q.SetDiagnoser(s.diagFn)
	_, err := runQueue(&s.q, s.p.Workers, maxSteps, maxTime)
	finishTracer(s.ins.Tracer, s.q.Now())
	return err
}

// Release returns the session to the pool. Fault state is detached here
// (and again by NewSession's network reset) so a recycled session starts
// fault-free even if its previous scenario was faulted, and the slabs are
// cleared so they retain no trees or results: every *Result InjectTree
// returned is invalid from here on. The payload block is kept and marked
// free, so a payload still borrowed is invalid too. Callers skip Release
// when the run panicked — a half-torn-down session must not be reused.
func (s *Session) Release() {
	s.scrub()
	sessionPool.Put(s)
}

// scrub drops everything scenario-specific, keeping the calendar, network
// and slab storage for the next bind.
func (s *Session) scrub() {
	s.q.Reset()
	s.ins = Instrumentation{}
	s.net.SetFaults(nil)
	s.extraDiag = nil
	clear(s.ops)
	s.ops = s.ops[:0]
	clear(s.nodes)
	s.nodes = s.nodes[:0]
	clear(s.steps)
	s.steps = s.steps[:0]
	if cap(s.steps) > maxKeptSteps {
		s.steps = nil
	}
	s.blockBusy = false
}

// Payload borrows an n-element vector for a data collective's input: the
// session's payload block when it is free and n is at most
// MaxPayloadBlock (grown to exactly n if it is smaller), otherwise fresh
// heap. The contents are unspecified. Hand it back with ReturnPayload
// once nothing reads it any more.
func (s *Session) Payload(n int) []float64 {
	if s.blockBusy || n == 0 || n > MaxPayloadBlock {
		return make([]float64, n)
	}
	if cap(s.block) < n {
		s.block = make([]float64, n)
	}
	s.blockBusy = true
	return s.block[:n]
}

// ReturnPayload hands back a vector Payload lent out. Returning the
// session's block frees it for the next borrower; heap vectors are simply
// dropped.
func (s *Session) ReturnPayload(b []float64) {
	if cap(b) > 0 && cap(s.block) > 0 && &b[:1][0] == &s.block[:1][0] {
		s.blockBusy = false
	}
}

// carve hands out the next n entries of a session slab. When the slab is
// full it is replaced by one twice as large: entries already carved stay
// in the old array, and the new one is what Release recycles.
func carve[T any](slab *[]T, n int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(2*cap(s), n))
	}
	i := len(s)
	*slab = s[:i+n]
	return s[i : i+n : i+n]
}

// denseNodeLimit bounds the dense per-op node table: cubes with at most
// this many nodes (dim <= 14) carve a flat slice indexed by address from
// the session slab — the allocation-free hot path of every paper workload
// — while giant cubes (dim 15 up to bits.MaxDim = 20, a million nodes)
// switch to a map holding state only for the nodes a tree actually
// touches. A 20-cube multicast to 64 destinations allocates 65 node states
// instead of 2^20. The backends are observationally identical (the sparse
// regression suite pins reflect.DeepEqual equality on overlapping dims);
// it is a var, not a const, so tests can force the sparse backend onto
// small cubes and diff it against dense.
var denseNodeLimit = 1 << 14

// opTable is one treeOp's node software-state store: dense below
// denseNodeLimit, sparse (lazily populated map) above. Exactly one backend
// is active. Lookups never iterate the map, so the backend cannot
// influence event order.
type opTable struct {
	dense  []opNode
	sparse map[topology.NodeID]*opNode
}

// state returns node v's state bound to op, materializing it on first
// touch under the sparse backend. Dense entries are bound here rather
// than up front, so a carve costs nothing per untouched node.
func (ot *opTable) state(op *treeOp, v topology.NodeID) *opNode {
	if ot.dense != nil {
		st := &ot.dense[v]
		st.op = op
		return st
	}
	st, ok := ot.sparse[v]
	if !ok {
		st = &opNode{op: op}
		ot.sparse[v] = st
	}
	return st
}

// treeOp is one multicast tree executing inside a Session. It is its own
// injection event: scheduled with AtOp, its RunEvent starts the root's
// first send at the op's injection instant. It is also the
// wormhole.Receiver of every unicast it sends, so no send allocates.
// Node software states are per-op: a processor can participate in
// several concurrent collectives, one handler per message tag.
type treeOp struct {
	s        *Session
	src      topology.NodeID
	bytes    int
	start    event.Time
	expected int // deliveries outstanding
	lost     int // deliveries the fault model destroyed (stranded subtrees)
	res      Result
	done     func(*Result)
	nodes    opTable
}

// opNode is one node's role inside one treeOp — the node's software and
// injection state. It doubles as the node's pre-bound calendar event
// (event.Op): a node has at most one software event pending per op at any
// instant — its receive overhead completing, or the CPU setup of one send
// — so the node object itself carries the dispatch stage and rides the
// calendar without per-event closures.
type opNode struct {
	op    *treeOp
	sends []core.Send
	next  int
	stage int8
}

const (
	nodeRecvDone  int8 = iota // TRecv paid; begin forwarding
	nodeSetupDone             // TStartup paid; inject sends[next-1]
)

// RunEvent dispatches the node's pending software event.
func (st *opNode) RunEvent() {
	if st.stage == nodeRecvDone {
		st.op.issueNext(st)
		return
	}
	st.op.setupDone(st)
}

// InjectTree schedules tr to start executing at absolute simulated time at
// (>= the current calendar time); the injection is one calendar event. The
// returned Result is filled in as the scenario runs: Recv times and
// Makespan are RELATIVE to the injection instant, so an op that runs
// without interference gives the same result at any injection time.
// TotalBlocked accumulates only this op's own unicast blocking (RunMany
// overwrites it with the network-wide total). The Result lives in the
// session and is valid until Release; copy it out before. If done is
// non-nil it fires at the op's completion instant — the arrival of its
// last unicast — on the shared calendar.
func (s *Session) InjectTree(at event.Time, tr *core.Tree, bytes int, done func(*Result)) *Result {
	op := &carve(&s.ops, 1)[0]
	op.s, op.src, op.bytes, op.done = s, tr.Source, bytes, done
	if n := tr.Cube.Nodes(); n <= denseNodeLimit {
		op.nodes.dense = carve(&s.nodes, n)
	} else {
		op.nodes.sparse = make(map[topology.NodeID]*opNode, len(tr.Order))
	}
	for i, v := range tr.Order {
		sends := tr.SendsAt(i)
		op.nodes.state(op, v).sends = sends
		op.expected += len(sends)
	}
	op.res = Result{
		Algorithm: tr.Algorithm,
		Bytes:     bytes,
		Recv:      make(map[topology.NodeID]event.Time, op.expected),
	}
	s.q.AtOp(at, op)
	return &op.res
}

// RunEvent is the injection: the op's clock starts now.
func (op *treeOp) RunEvent() {
	op.start = op.s.q.Now()
	if op.expected == 0 {
		if op.done != nil {
			op.done(&op.res)
		}
		return
	}
	op.issueNext(op.nodes.state(op, op.src))
}

// issueNext sets up node st's next pending unicast: serial per-send CPU
// setup, with the one-port model additionally gating the next issue on the
// previous tail draining into the network (single DMA pair), while the
// all-port model overlaps transmissions and is limited only by the CPU.
func (op *treeOp) issueNext(st *opNode) {
	if st.next >= len(st.sends) {
		return
	}
	st.next++
	st.stage = nodeSetupDone
	op.s.q.AfterOp(op.s.p.TStartup, st)
}

// setupDone injects the unicast whose CPU setup just completed. The
// all-port model issues the node's next send at once; the one-port model
// waits for this one's fate (see Deliver and Lose).
func (op *treeOp) setupDone(st *opNode) {
	snd := st.sends[st.next-1]
	op.s.net.Send(snd.From, snd.To, op.bytes, op)
	if op.s.p.Port == core.AllPort {
		op.issueNext(st)
	}
}

// Deliver records one completed unicast in op-relative time and starts
// the receiver's software overhead; under the one-port model it then
// frees the sender's port for its next send. The op's done hook fires
// when the last outstanding delivery lands — i.e. at the makespan instant
// (the final receiver's residual TRecv is not part of the multicast
// delay).
func (op *treeOp) Deliver(d wormhole.Delivery) {
	rel := d.Arrived - op.start
	if _, dup := op.res.Recv[d.To]; dup {
		panic(fmt.Sprintf("ncube: node %v received op payload twice", d.To))
	}
	op.res.Recv[d.To] = rel
	if rel > op.res.Makespan {
		op.res.Makespan = rel
	}
	op.res.TotalBlocked += d.Blocked
	st := op.nodes.state(op, d.To)
	st.stage = nodeRecvDone
	op.s.q.AfterOp(op.s.p.TRecv, st)
	op.expected--
	if op.expected == 0 && op.done != nil {
		op.done(&op.res)
	}
	if op.s.p.Port == core.OnePort {
		op.issueNext(op.nodes.state(op, d.From))
	}
}

// Lose writes off the subtree rooted at the target of a destroyed
// unicast: the node never receives, so it never forwards, and every
// delivery its subtree owed the op will never happen. Decrementing
// expected by the stranded count keeps the op's completion accounting
// exact under drop faults (stall faults wedge instead and are the
// watchdog's business); without it the op, and the scenario behind it,
// would wait forever. The port frees when the message dies, exactly as on
// a delivery: the node's later sends still go out.
func (op *treeOp) Lose(from, to topology.NodeID) {
	op.strand(to)
	if op.expected == 0 && op.done != nil {
		op.done(&op.res)
	}
	if op.s.p.Port == core.OnePort {
		op.issueNext(op.nodes.state(op, from))
	}
}

func (op *treeOp) strand(v topology.NodeID) {
	op.expected--
	op.lost++
	for _, snd := range op.nodes.state(op, v).sends {
		op.strand(snd.To)
	}
}
