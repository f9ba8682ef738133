package core

import (
	"sync"

	"hypercube/internal/topology"
)

// denseNodeLimit bounds the dense scheduler scratch: cubes with at most
// this many nodes (dim <= 14) index tree positions and arc claims by
// address in flat pooled arrays, while larger cubes (up to bits.MaxDim = 20,
// a million nodes) fall back to maps holding only what one tree touches, so
// a 20-cube multicast does not allocate 80 MB of arc stamps. The backends
// are observationally identical; it is a var, not a const, so tests can
// force the sparse fallback onto small cubes and diff it against dense.
var denseNodeLimit = 1 << 14

// scratch is the reusable working set of one pass over a tree: its
// per-Order-index state, a node-to-Order-index table, and the arc claims
// of the all-port scheduler. Scratches are pooled; release leaves the
// tables empty again.
type scratch struct {
	recv []int32 // per Order index: receive step, -1 until reached
	left []int32 // per Order index: sends not yet launched
	// pend holds, from first[i] on, the left[i] send indices still
	// pending at Order[i], compacted in place in issue order.
	pend []int32

	sparse    bool    // t's cube is above denseNodeLimit
	pos       []int32 // node -> Order index + 1, 0 when not in Order
	posSparse map[topology.NodeID]int32
	arcs      arcClaims
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a scratch indexed for t: every Order node resolves
// through index, and recv holds -1 everywhere except 0 at the source.
func getScratch(t *Tree) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.sparse = t.Cube.Nodes() > denseNodeLimit
	if nodes := t.Cube.Nodes(); !sc.sparse {
		if len(sc.pos) < nodes {
			sc.pos = make([]int32, nodes)
		}
		for i, v := range t.Order {
			sc.pos[v] = int32(i + 1)
		}
	} else {
		if sc.posSparse == nil {
			sc.posSparse = make(map[topology.NodeID]int32, len(t.Order))
		}
		for i, v := range t.Order {
			sc.posSparse[v] = int32(i + 1)
		}
	}
	sc.recv = resize(sc.recv, len(t.Order))
	for i := range sc.recv {
		sc.recv[i] = -1
	}
	sc.reached(t.Source, 0)
	return sc
}

// release empties the tables filled for t and returns sc to the pool.
func (sc *scratch) release(t *Tree) {
	if sc.sparse {
		clear(sc.posSparse)
		clear(sc.arcs.sparse)
	} else {
		for _, v := range t.Order {
			sc.pos[v] = 0
		}
	}
	scratchPool.Put(sc)
}

// index returns v's Order index, or -1 when v is not in Order.
func (sc *scratch) index(v topology.NodeID) int {
	if sc.sparse {
		return int(sc.posSparse[v]) - 1
	}
	return int(sc.pos[v]) - 1
}

// reached records that v holds the message from step on.
func (sc *scratch) reached(v topology.NodeID, step int) {
	if i := sc.index(v); i >= 0 {
		sc.recv[i] = int32(step)
	}
}

// pending loads every send of t as pending at its sender.
func (sc *scratch) pending(t *Tree) {
	sc.left = resize(sc.left, len(t.Order))
	for i := range sc.left {
		sc.left[i] = t.first[i+1] - t.first[i]
	}
	sc.pend = resize(sc.pend, len(t.sends))
	for k := range sc.pend {
		sc.pend[k] = int32(k)
	}
	sc.arcs.load(t.Cube, sc.sparse)
}

func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// arcClaims is the set of directed channels claimed in the current step of
// an all-port schedule. Arc (from, dim) is slot from*n+dim; a slot is
// claimed when it holds the current step's epoch, so starting a step costs
// one increment instead of a clear.
type arcClaims struct {
	epoch    uint32
	n        uint32 // slots per node: the cube's dimension
	isSparse bool
	dense    []uint32
	sparse   map[uint32]uint32
}

func (a *arcClaims) load(c topology.Cube, sparse bool) {
	a.n, a.isSparse = uint32(c.Dim()), sparse
	if sparse {
		if a.sparse == nil {
			a.sparse = make(map[uint32]uint32)
		}
	} else if slots := c.Nodes() * c.Dim(); len(a.dense) < slots {
		a.dense = make([]uint32, slots)
	}
}

// nextStep starts a step with no arc claimed.
func (a *arcClaims) nextStep() {
	a.epoch++
	if a.epoch == 0 { // wrapped: stale stamps could alias the new epochs
		clear(a.dense)
		clear(a.sparse)
		a.epoch = 1
	}
}

func (a *arcClaims) claimed(slot uint32) bool {
	if a.isSparse {
		return a.sparse[slot] == a.epoch
	}
	return a.dense[slot] == a.epoch
}

func (a *arcClaims) claim(slot uint32) {
	if a.isSparse {
		a.sparse[slot] = a.epoch
		return
	}
	a.dense[slot] = a.epoch
}

// claimPath claims every arc of the E-cube route from -> to, walked
// arithmetically in routing order, unless one is already claimed this
// step, in which case it claims nothing and reports false.
func (a *arcClaims) claimPath(c topology.Cube, from, to topology.NodeID) bool {
	for cur, rest := from, from^to; rest != 0; {
		d := c.FirstHop(0, rest)
		if a.claimed(uint32(cur)*a.n + uint32(d)) {
			return false
		}
		cur ^= 1 << d
		rest ^= 1 << d
	}
	for cur, rest := from, from^to; rest != 0; {
		d := c.FirstHop(0, rest)
		a.claim(uint32(cur)*a.n + uint32(d))
		cur ^= 1 << d
		rest ^= 1 << d
	}
	return true
}
