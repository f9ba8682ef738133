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
	"hypercube/internal/core"
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

// engine is the state of one collective launch on a session's calendar and
// network.
type engine struct {
	q         *event.Queue
	net       *wormhole.Network
	p         ncube.Params
	res       *Result
	remaining int // nodes that have not finished yet
	onDone    func(Result)
}

// newEngine starts a launch on s in which nodes nodes take part. The
// schedule launches at the calendar's current time and the caller drives
// the calendar. done, if non-nil, fires on the calendar at the instant the
// last node finishes, with Finish times in absolute simulated time.
func newEngine(s *ncube.Session, nodes int, done func(Result)) *engine {
	return &engine{
		q:         s.Queue(),
		net:       s.Network(),
		p:         s.Params(),
		res:       &Result{Finish: make(map[topology.NodeID]event.Time, nodes)},
		remaining: nodes,
		onDone:    done,
	}
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

// finished records node v completing its role at time t, maintains the
// makespan, and fires the completion hook when the last node lands.
func (e *engine) finished(v topology.NodeID, t event.Time) {
	if _, dup := e.res.Finish[v]; !dup {
		e.remaining--
	}
	e.res.Finish[v] = t
	if t > e.res.Makespan {
		e.res.Makespan = t
	}
	if e.remaining == 0 && e.onDone != nil {
		e.onDone(*e.res)
	}
}

// sendSpec is one message of a schedule.
type sendSpec struct {
	to    topology.NodeID
	bytes int
	// tag identifies the message to the receiver's handler.
	tag int
	// data is the payload the message carries, when the schedule moves
	// real data (see payload.go). It rides alongside the byte count —
	// the wormhole model only ever sees bytes — so attaching a payload
	// cannot perturb the event schedule of a timing-only execution.
	data []float64
}

// sendSeq issues node's sends serially (TStartup each), respecting the
// port model, invoking each onDelivered as the matching tail arrives.
func (e *engine) sendSeq(node topology.NodeID, sends []sendSpec, onDelivered func(spec sendSpec, d wormhole.Delivery)) {
	var issue func(i int)
	issue = func(i int) {
		if i >= len(sends) {
			return
		}
		s := sends[i]
		e.q.After(e.p.TStartup, func() {
			e.res.Messages++
			done := func(d wormhole.Delivery) {
				// Per-delivery accumulation keeps the total per-operation
				// on a shared network; standalone it equals
				// net.TotalBlocked() (every send passes through here).
				e.res.TotalBlocked += d.Blocked
				if onDelivered != nil {
					onDelivered(s, d)
				}
			}
			switch e.p.Port {
			case core.AllPort:
				e.net.Send(node, s.to, s.bytes, done)
				issue(i + 1)
			case core.OnePort:
				e.net.Send(node, s.to, s.bytes, func(d wormhole.Delivery) {
					done(d)
					issue(i + 1)
				})
			}
		})
	}
	issue(0)
}

// rel/abs translate between a root-relative canonical address space and
// machine addresses, as in the multicast core.
func relOf(c topology.Cube, root, v topology.NodeID) topology.NodeID {
	return c.Canon(v) ^ c.Canon(root)
}

func absOf(c topology.Cube, root, r topology.NodeID) topology.NodeID {
	return c.Canon(r ^ c.Canon(root))
}

// lowBit returns the position of the lowest set bit, or n for zero.
func lowBit(v topology.NodeID, n int) int {
	for d := 0; d < n; d++ {
		if v&(1<<uint(d)) != 0 {
			return d
		}
	}
	return n
}

// Scatter distributes a distinct blockBytes-sized block from root to every
// node using the dimension-descending binomial schedule: a holder of the
// blocks for a 2^h-node subcube forwards, per dimension d < h, the 2^d
// blocks of the opposite half to its dimension-d neighbor. Every message
// crosses one channel.
func Scatter(p ncube.Params, cube topology.Cube, root topology.NodeID, blockBytes int) Result {
	return run(p, cube, func(s *ncube.Session) *Result { return ScatterOn(s, root, blockBytes, nil) })
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
	e := newEngine(s, cube.Nodes(), done)
	var deliver func(s sendSpec, d wormhole.Delivery)
	forward := func(node topology.NodeID, h int) {
		r := relOf(cube, root, node)
		var sends []sendSpec
		for d := h - 1; d >= 0; d-- {
			sends = append(sends, sendSpec{
				to:    absOf(cube, root, r|1<<uint(d)),
				bytes: blockBytes * (1 << uint(d)),
				tag:   d,
			})
		}
		e.sendSeq(node, sends, deliver)
	}
	deliver = func(s sendSpec, d wormhole.Delivery) {
		e.finished(d.To, d.Arrived)
		e.q.After(e.p.TRecv, func() { forward(d.To, s.tag) })
	}
	e.finished(root, e.q.Now())
	forward(root, cube.Dim())
	return e.res
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
// (d < lowBit(r)) and sends to r with its lowest set bit cleared. The
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

// convergecast runs a reduction up t: each participant sends once, to its
// parent, as soon as it has absorbed all its children — each receipt
// costing TRecv + tCompute — and finishes when its message arrives; the
// root finishes when it has absorbed its last child. outbound(v) is v's
// message, a byte count and an optional payload; absorb, nil for a
// timing-only schedule, folds a payload into its receiver.
func (e *engine) convergecast(t upTree, outbound func(v topology.NodeID) (int, []float64),
	absorb func(v topology.NodeID, data []float64), tCompute event.Time) {
	pending := t.pending // per-message closures capture this, not all of t
	var ready func(v topology.NodeID)
	ready = func(v topology.NodeID) {
		if v == t.root {
			e.finished(v, e.q.Now())
			return
		}
		bytes, data := outbound(v)
		e.sendSeq(v, []sendSpec{{to: t.parent[v], bytes: bytes, data: data}}, func(s sendSpec, d wormhole.Delivery) {
			e.finished(v, d.Arrived) // contribution delivered
			to := d.To
			e.q.After(e.p.TRecv+tCompute, func() {
				if absorb != nil {
					absorb(to, data)
				}
				pending[to]--
				if pending[to] == 0 {
					ready(to)
				}
			})
		})
	}
	for _, v := range t.order {
		if pending[v] == 0 {
			ready(v)
		}
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
	e := newEngine(s, cube.Nodes(), done)
	e.convergecast(binomialTree(cube, root), func(v topology.NodeID) (int, []float64) {
		return blockBytes * (1 << uint(lowBit(relOf(cube, root, v), n))), nil
	}, nil, 0)
	return e.res
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
		e := newEngine(s, cube.Nodes(), nil)
		e.convergecast(binomialTree(cube, root), fixedBytes(bytes), nil, tCompute)
		return e.res
	})
}

// fixedBytes is the outbound of a timing-only convergecast whose messages
// all carry bytes bytes.
func fixedBytes(bytes int) func(topology.NodeID) (int, []float64) {
	return func(topology.NodeID) (int, []float64) { return bytes, nil }
}

// exchange runs a pairwise-exchange schedule of rounds ≥ 1 rounds: in round k
// node v sends outbound(v, k) — a byte count and an optional payload — to
// peer(v, k), and enters round k+1 only after both issuing its round-k
// send and receiving (and processing, TRecv + tCompute) its round-k
// message. Receipts arriving out of round order are buffered and absorbed
// in round order. absorb is nil for a timing-only schedule, which then
// keeps no payload buffers. Absorbing is pure data movement, so a
// data-carrying exchange schedules exactly the events of a timing-only one
// with the same per-round byte counts.
func (e *engine) exchange(rounds int, peer func(v topology.NodeID, k int) topology.NodeID,
	outbound func(v topology.NodeID, k int) (int, []float64),
	absorb func(v topology.NodeID, k int, data []float64), tCompute event.Time) {
	nodes := e.net.Cube().Nodes()
	got := matrix[bool](nodes, rounds)
	var buf [][][]float64 // buf[v][k]: v's round-k payload
	if absorb != nil {
		buf = matrix[[]float64](nodes, rounds)
	}
	round := make([]int, nodes) // next round not yet started
	var start func(v topology.NodeID)
	advance := func(v topology.NodeID) {
		// Enter the next round once the current one is fully done;
		// consume any receipts that arrived ahead of order.
		for round[v] < rounds && got[v][round[v]] {
			if k := round[v]; absorb != nil {
				absorb(v, k, buf[v][k])
				buf[v][k] = nil
			}
			round[v]++
			if round[v] == rounds {
				e.finished(v, e.q.Now())
				return
			}
			start(v)
		}
	}
	receive := func(s sendSpec, d wormhole.Delivery) {
		v, k, data := d.To, s.tag, s.data
		e.q.After(e.p.TRecv+tCompute, func() {
			got[v][k] = true
			if absorb != nil {
				buf[v][k] = data
			}
			if k == round[v] {
				advance(v)
			}
		})
	}
	start = func(v topology.NodeID) {
		k := round[v]
		bytes, data := outbound(v, k)
		e.sendSeq(v, []sendSpec{{to: peer(v, k), bytes: bytes, tag: k, data: data}}, receive)
	}
	for v := 0; v < nodes; v++ {
		start(topology.NodeID(v))
	}
}

// dimensionExchange launches a timing-only exchange on s whose round k
// crosses dimension k, one round per dimension.
func dimensionExchange(s *ncube.Session, outbound func(v topology.NodeID, k int) (int, []float64), tCompute event.Time, done func(Result)) *Result {
	cube := s.Network().Cube()
	e := newEngine(s, cube.Nodes(), done)
	e.exchange(cube.Dim(), cube.Neighbor, outbound, nil, tCompute)
	return e.res
}

// Barrier runs the dissemination barrier: in round k every node notifies
// its dimension-k neighbor and proceeds once it has received that round's
// notification, completing after n rounds. Notifications are 8-byte
// messages.
func Barrier(p ncube.Params, cube topology.Cube) Result {
	const noteBytes = 8
	return run(p, cube, func(s *ncube.Session) *Result {
		return dimensionExchange(s, func(topology.NodeID, int) (int, []float64) { return noteBytes, nil }, 0, nil)
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
	return dimensionExchange(s, func(_ topology.NodeID, d int) (int, []float64) {
		return blockBytes * (1 << uint(d)), nil
	}, 0, done)
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
		return dimensionExchange(s, func(topology.NodeID, int) (int, []float64) { return bytes, nil }, tCompute, nil)
	})
}
