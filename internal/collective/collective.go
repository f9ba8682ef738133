// Package collective builds the rest of the collective-communication
// repertoire the paper's introduction motivates (MPI-style operations on
// wormhole-routed hypercubes) on top of the same machine model used for
// multicast: scatter and gather (personalized distribution), reduction,
// barrier synchronization, all-gather, allreduce, reduce-scatter and
// all-to-all. Every operation is one of three schedule shapes: the
// binomial scatter, a convergecast up a tree (gather, the reductions), or
// a pairwise exchange in rounds (everything else). The dimension-ordered
// schedules send each message across exactly one channel, so their
// executions are physically contention-free by construction — a property
// the tests verify on the simulator.
//
// Every schedule runs on an ncube.Session. A ...On function launches one
// on the caller's session, among whatever else that session runs; a
// standalone entry point is its launch on a session of its own.
package collective

import (
	"math/bits"

	"hypercube/internal/event"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/wormhole"
)

// Result reports one collective operation's execution.
type Result struct {
	// Finish is, per node, when that node completed its role (for data
	// movement: when its last required receipt arrived; for the root of
	// a gather/reduce: when the full result is assembled).
	Finish map[topology.NodeID]event.Time
	// Makespan is when the whole operation completed.
	Makespan event.Time
	// Messages is the number of point-to-point messages exchanged.
	Messages int
	// TotalBlocked is cumulative header blocking; the schedules used
	// here keep it at zero.
	TotalBlocked event.Time
}

// engine is the bookkeeping every collective launch shares: its result,
// the nodes still to finish, and the completion hook. Each schedule shape
// embeds it in its ncube.StepProgram — scatter, convergecast, exchange —
// whose messages are ncube.Steps carved from the session's slab, so a
// launch allocates nothing per message.
type engine struct {
	s *ncube.Session
	// dr is the launch's result; a timing-only launch hands out
	// &dr.Result and leaves Data nil.
	dr        DataResult
	remaining int // nodes that have not finished yet
	onDone    func(Result)
}

// init starts a launch on s in which nodes nodes take part. The schedule
// launches at the calendar's current time and the caller drives the
// calendar. done, if non-nil, fires on the calendar at the instant the
// last node finishes, with Finish times in absolute simulated time.
func (e *engine) init(s *ncube.Session, nodes int, done func(Result)) {
	e.s, e.remaining, e.onDone = s, nodes, done
	e.dr.Finish = make(map[topology.NodeID]event.Time, nodes)
}

// run is the one standalone execution path: launch at t=0 on a borrowed
// session, drive it to completion under the event watchdog (honouring
// p.Workers), and return the session to the pool.
func run[R any](p ncube.Params, cube topology.Cube, launch func(s *ncube.Session) *R) R {
	s := ncube.NewSession(p, cube, ncube.Instrumentation{})
	r := launch(s)
	if err := s.Run(0, 0); err != nil {
		panic(err)
	}
	s.Release()
	return *r
}

// delivered accounts one message's arrival. Per-message accumulation
// keeps the totals per-operation on a shared network; standalone,
// TotalBlocked equals net.TotalBlocked().
func (e *engine) delivered(d wormhole.Delivery) {
	e.dr.Messages++
	e.dr.TotalBlocked += d.Blocked
}

// finished records node v completing its role at time t, maintains the
// makespan, and fires the completion hook when the last node lands.
func (e *engine) finished(v topology.NodeID, t event.Time) {
	r := &e.dr.Result
	if _, dup := r.Finish[v]; !dup {
		e.remaining--
	}
	r.Finish[v] = t
	if t > r.Makespan {
		r.Makespan = t
	}
	if e.remaining == 0 && e.onDone != nil {
		e.onDone(*r)
	}
}

// lowBit returns the position of v's lowest set bit, or n for zero.
func lowBit(v topology.NodeID, n int) int { return min(bits.TrailingZeros(uint(v)), n) }

// rel/abs translate between a root-relative canonical address space and
// machine addresses, as in the multicast core.
func relOf(c topology.Cube, root, v topology.NodeID) topology.NodeID {
	return c.Canon(v) ^ c.Canon(root)
}

func absOf(c topology.Cube, root, r topology.NodeID) topology.NodeID {
	return c.Canon(r ^ c.Canon(root))
}

// Scatter distributes a distinct blockBytes-sized block from root to every
// node using the dimension-descending binomial schedule: a holder of the
// blocks for a 2^h-node subcube forwards, per dimension d < h, the 2^d
// blocks of the opposite half to its dimension-d neighbor. Every message
// crosses one channel.
func Scatter(p ncube.Params, cube topology.Cube, root topology.NodeID, blockBytes int) Result {
	return run(p, cube, func(s *ncube.Session) *Result { return ScatterOn(s, root, blockBytes, nil) })
}

// scatter is Scatter's step program. Step t-1 delivers to the node at
// root-relative address t (t >= 1), from t with its lowest set bit d
// cleared, and is tagged d: its receiver forwards across dimensions d-1
// down to 0. A sender's steps chain through Next in that order.
type scatter struct {
	engine
	root  topology.NodeID
	steps []ncube.Step
}

// ScatterOn launches Scatter's schedule on s at the calendar's current
// time; the caller drives the calendar, and done (if non-nil) fires when
// the last node finishes. The returned Result fills in as the scenario
// runs.
func ScatterOn(s *ncube.Session, root topology.NodeID, blockBytes int, done func(Result)) *Result {
	cube := s.Network().Cube()
	cube.MustContain(root)
	if blockBytes < 0 {
		panic("collective: negative block size")
	}
	sc := &scatter{root: root}
	sc.init(s, cube.Nodes(), done)
	sc.steps = s.Steps(sc, s.Params().TRecv, cube.Nodes()-1)
	for t := 1; t < cube.Nodes(); t++ {
		d := bits.TrailingZeros(uint(t))
		st := &sc.steps[t-1]
		st.From = absOf(cube, root, topology.NodeID(t&^(1<<d)))
		st.To = absOf(cube, root, topology.NodeID(t))
		st.Bytes, st.Tag = blockBytes<<d, int32(d)
		if d > 0 {
			st.Next = &sc.steps[t-1-(1<<(d-1))]
		}
	}
	sc.finished(root, s.Now())
	sc.forward(0, cube.Dim())
	return &sc.dr.Result
}

// forward issues the sends of the node at relative address r, which
// holds the blocks of a 2^h-node subcube.
func (sc *scatter) forward(r, h int) {
	if h > 0 {
		sc.steps[(r|1<<(h-1))-1].Issue()
	}
}

func (sc *scatter) Delivered(_ *ncube.Step, d wormhole.Delivery) {
	sc.delivered(d)
	sc.finished(d.To, d.Arrived)
}

func (sc *scatter) Received(st *ncube.Step) {
	sc.forward(int(relOf(sc.s.Network().Cube(), sc.root, st.To)), int(st.Tag))
}

// upTree is the shape of a convergecast: its root, each participant's
// parent and child count (indexed by node), and the participants in
// launch order.
type upTree struct {
	root    topology.NodeID
	order   []topology.NodeID
	parent  []topology.NodeID
	pending []int
}

// binomialTree is the dimension-ascending binomial tree rooted at root:
// the node at root-relative address r has its lowBit(r) children r|1<<d
// (d < lowBit(r), the position of r's lowest set bit, n for the root) and
// sends to r with its lowest set bit cleared. The
// launch order is ascending relative address.
func binomialTree(cube topology.Cube, root topology.NodeID) upTree {
	n, nodes := cube.Dim(), cube.Nodes()
	t := upTree{
		root:    root,
		order:   make([]topology.NodeID, nodes),
		parent:  make([]topology.NodeID, nodes),
		pending: make([]int, nodes),
	}
	for r := topology.NodeID(0); int(r) < nodes; r++ {
		v, L := absOf(cube, root, r), lowBit(r, n)
		t.order[r], t.pending[v] = v, L
		t.parent[v] = absOf(cube, root, r&^(1<<uint(L)))
	}
	return t
}

// convergecast is the step program of a reduction up t: each
// participant sends once, to its parent, as soon as it has absorbed all
// its children — each receipt costing TRecv + tCompute — and finishes
// when its message arrives; the root finishes when it has absorbed its
// last child. steps[v] carries v's message.
type convergecast struct {
	engine
	t     upTree
	steps []ncube.Step
	// absorb folds sender u's payload into v; nil for a timing-only
	// schedule.
	absorb func(v, u topology.NodeID)
}

// convergecastOn launches a convergecast up t on s in which participant
// v's message is bytes(v) long.
func convergecastOn(s *ncube.Session, t upTree, bytes func(v topology.NodeID) int,
	absorb func(v, u topology.NodeID), tCompute event.Time, done func(Result)) *convergecast {
	c := &convergecast{t: t, absorb: absorb}
	c.init(s, len(t.order), done)
	c.steps = s.Steps(c, s.Params().TRecv+tCompute, s.Network().Cube().Nodes())
	for _, v := range t.order {
		if v != t.root {
			st := &c.steps[v]
			st.From, st.To, st.Bytes = v, t.parent[v], bytes(v)
		}
	}
	for _, v := range t.order {
		if t.pending[v] == 0 {
			c.ready(v)
		}
	}
	return c
}

// ready fires when v has absorbed all its children.
func (c *convergecast) ready(v topology.NodeID) {
	if v == c.t.root {
		c.finished(v, c.s.Now())
		return
	}
	c.steps[v].Issue()
}

func (c *convergecast) Delivered(st *ncube.Step, d wormhole.Delivery) {
	c.delivered(d)
	c.finished(st.From, d.Arrived) // contribution delivered
}

func (c *convergecast) Received(st *ncube.Step) {
	if c.absorb != nil {
		c.absorb(st.To, st.From)
	}
	c.t.pending[st.To]--
	if c.t.pending[st.To] == 0 {
		c.ready(st.To)
	}
}

// Gather is the inverse of Scatter: every node's block converges on root
// along the dimension-ascending binomial tree; a node at low-bit position
// L first absorbs its L children's accumulated blocks, then forwards
// 2^L blocks toward the root.
func Gather(p ncube.Params, cube topology.Cube, root topology.NodeID, blockBytes int) Result {
	return run(p, cube, func(s *ncube.Session) *Result { return GatherOn(s, root, blockBytes, nil) })
}

// GatherOn launches Gather's schedule on s at the calendar's current time;
// the caller drives the calendar, and done (if non-nil) fires when the
// root has assembled every block.
func GatherOn(s *ncube.Session, root topology.NodeID, blockBytes int, done func(Result)) *Result {
	cube := s.Network().Cube()
	cube.MustContain(root)
	if blockBytes < 0 {
		panic("collective: negative block size")
	}
	n := cube.Dim()
	c := convergecastOn(s, binomialTree(cube, root), func(v topology.NodeID) int {
		return blockBytes << lowBit(relOf(cube, root, v), n)
	}, nil, 0, done)
	return &c.dr.Result
}

// Reduce performs an all-to-one reduction: partial results of a fixed
// bytes size flow up the same tree as Gather, and each node spends
// tCompute combining each arriving child contribution.
func Reduce(p ncube.Params, cube topology.Cube, root topology.NodeID, bytes int, tCompute event.Time) Result {
	cube.MustContain(root)
	if bytes < 0 || tCompute < 0 {
		panic("collective: negative reduce parameter")
	}
	return run(p, cube, func(s *ncube.Session) *Result {
		return &convergecastOn(s, binomialTree(cube, root), fixedBytes(bytes), nil, tCompute, nil).dr.Result
	})
}

// fixedBytes sizes every message of a convergecast at bytes.
func fixedBytes(bytes int) func(topology.NodeID) int {
	return func(topology.NodeID) int { return bytes }
}

// exchange is the step program of a pairwise-exchange schedule of
// rounds >= 1 rounds: in round k node v sends bytes(v, k) to peer(v, k),
// and enters round k+1 only after both issuing its round-k send and
// receiving (and processing, TRecv + tCompute) its round-k message, which
// from(v, k) sends. Receipts arriving out of round order wait, and are
// absorbed in round order. Absorbing is pure data movement, so a
// data-carrying exchange schedules exactly the events of a timing-only
// one with the same per-round byte counts.
type exchange struct {
	engine
	rounds int
	steps  []ncube.Step // steps[v*rounds+k] is v's round-k message
	round  []int        // round[v]: the rounds v has absorbed
	from   func(v topology.NodeID, k int) topology.NodeID
	// absorb folds v's round-k message, sent by u, into v; nil for a
	// timing-only schedule.
	absorb func(v, u topology.NodeID, k int)
}

// newExchange lays out an exchange on s; the caller sets absorb, if any,
// and launches it.
func newExchange(s *ncube.Session, rounds int, peer, from func(v topology.NodeID, k int) topology.NodeID,
	bytes func(v topology.NodeID, k int) int, tCompute event.Time, done func(Result)) *exchange {
	nodes := s.Network().Cube().Nodes()
	x := &exchange{rounds: rounds, round: make([]int, nodes), from: from}
	x.init(s, nodes, done)
	x.steps = s.Steps(x, s.Params().TRecv+tCompute, nodes*rounds)
	for i := range x.steps {
		v, k := topology.NodeID(i/rounds), i%rounds
		st := &x.steps[i]
		st.From, st.To, st.Bytes, st.Tag = v, peer(v, k), bytes(v, k), int32(k)
	}
	return x
}

// launch issues every node's round-0 send.
func (x *exchange) launch() *DataResult {
	for i := 0; i < len(x.steps); i += x.rounds {
		x.steps[i].Issue()
	}
	return &x.dr
}

func (x *exchange) Delivered(_ *ncube.Step, d wormhole.Delivery) { x.delivered(d) }

func (x *exchange) Received(st *ncube.Step) {
	if int(st.Tag) == x.round[st.To] {
		x.advance(st.To)
	}
}

// advance absorbs v's received messages in round order, entering the
// next round after each; v finishes when it has absorbed its last round.
func (x *exchange) advance(v topology.NodeID) {
	for x.round[v] < x.rounds {
		k := x.round[v]
		in := &x.steps[int(x.from(v, k))*x.rounds+k]
		if !in.Done() {
			return
		}
		if x.absorb != nil {
			x.absorb(v, in.From, k)
		}
		x.round[v]++
		if x.round[v] == x.rounds {
			x.finished(v, x.s.Now())
			return
		}
		x.steps[int(v)*x.rounds+x.round[v]].Issue()
	}
}

// dimensionExchange launches a timing-only exchange on s whose round k
// crosses dimension k, one round per dimension, with bytes(k)-byte
// messages.
func dimensionExchange(s *ncube.Session, bytes func(k int) int, tCompute event.Time, done func(Result)) *Result {
	cube := s.Network().Cube()
	x := newExchange(s, cube.Dim(), cube.Neighbor, cube.Neighbor,
		func(_ topology.NodeID, k int) int { return bytes(k) }, tCompute, done)
	return &x.launch().Result
}

// Barrier runs the dissemination barrier: in round k every node notifies
// its dimension-k neighbor and proceeds once it has received that round's
// notification, completing after n rounds. Notifications are 8-byte
// messages.
func Barrier(p ncube.Params, cube topology.Cube) Result {
	const noteBytes = 8
	return run(p, cube, func(s *ncube.Session) *Result {
		return dimensionExchange(s, func(int) int { return noteBytes }, 0, nil)
	})
}

// AllGather performs the recursive-doubling all-gather: in round d every
// node exchanges its accumulated 2^d blocks with its dimension-d neighbor,
// finishing with all N blocks everywhere.
func AllGather(p ncube.Params, cube topology.Cube, blockBytes int) Result {
	return run(p, cube, func(s *ncube.Session) *Result { return AllGatherOn(s, blockBytes, nil) })
}

// AllGatherOn launches AllGather's schedule on s at the calendar's current
// time; the caller drives the calendar, and done (if non-nil) fires when
// the last node finishes.
func AllGatherOn(s *ncube.Session, blockBytes int, done func(Result)) *Result {
	if blockBytes < 0 {
		panic("collective: negative block size")
	}
	return dimensionExchange(s, func(d int) int { return blockBytes * (1 << uint(d)) }, 0, done)
}

// AllReduce combines a fixed-size vector across all nodes and leaves the
// result everywhere, using the butterfly (recursive-doubling exchange)
// schedule: n rounds of pairwise exchange-and-combine, tCompute per merge.
// Equivalent to Reduce followed by a broadcast but with half the rounds
// and perfectly symmetric load.
func AllReduce(p ncube.Params, cube topology.Cube, bytes int, tCompute event.Time) Result {
	if bytes < 0 || tCompute < 0 {
		panic("collective: negative allreduce parameter")
	}
	return run(p, cube, func(s *ncube.Session) *Result {
		return dimensionExchange(s, func(int) int { return bytes }, tCompute, nil)
	})
}
