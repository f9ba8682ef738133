package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"hypercube/internal/topology"
)

// PortModel selects the node/router interface of Section 1: how many
// internal channel pairs connect the local processor to its router.
type PortModel int

const (
	// OnePort nodes transmit and receive at most one message per step.
	OnePort PortModel = iota
	// AllPort nodes own an internal channel per external channel and may
	// send simultaneously on every dimension.
	AllPort
)

func (p PortModel) String() string {
	switch p {
	case OnePort:
		return "one-port"
	case AllPort:
		return "all-port"
	default:
		return fmt.Sprintf("PortModel(%d)", int(p))
	}
}

// Unicast is a scheduled constituent message: the paper's
// (u, v, P(u,v), t) tuple with the path left implicit in E-cube routing.
type Unicast struct {
	From, To topology.NodeID
	Step     int // 1-based synchronous time step
}

// Schedule is a stepwise execution of a multicast tree.
type Schedule struct {
	Tree     *Tree
	Port     PortModel
	Unicasts []Unicast

	recvOnce sync.Once
	recv     []nodeStep // receive steps sorted by node, built on first RecvStep
}

type nodeStep struct {
	node topology.NodeID
	step int32
}

// Steps returns the total number of steps: the largest receive step.
func (s *Schedule) Steps() int {
	max := 0
	for _, u := range s.Unicasts {
		if u.Step > max {
			max = u.Step
		}
	}
	return max
}

// RecvStep returns the step at which node v received the message and
// whether v is reached at all (the source reports step 0, true). The first
// call indexes the receive steps by node; every call is a binary search.
func (s *Schedule) RecvStep(v topology.NodeID) (int, bool) {
	s.recvOnce.Do(func() {
		s.recv = make([]nodeStep, 0, len(s.Unicasts)+1)
		s.recv = append(s.recv, nodeStep{s.Tree.Source, 0})
		for _, u := range s.Unicasts {
			s.recv = append(s.recv, nodeStep{u.To, int32(u.Step)})
		}
		slices.SortFunc(s.recv, func(a, b nodeStep) int { return cmp.Compare(a.node, b.node) })
	})
	i, ok := slices.BinarySearchFunc(s.recv, v, func(e nodeStep, v topology.NodeID) int { return cmp.Compare(e.node, v) })
	if !ok {
		return 0, false
	}
	return int(s.recv[i].step), true
}

// NewSchedule runs the stepwise execution model for the given port model.
//
// One-port: each node issues its sends on consecutive steps beginning the
// step after it received the message; one send and one receive per node per
// step. This is the model under which U-cube is optimal.
//
// All-port: per step a node may send on every outgoing channel
// simultaneously, but (a) at most one message per channel per step, with
// same-channel sends issuing in algorithm order, and (b) all unicasts
// launched in the same step must be pairwise arc-disjoint — a send that
// would contend is deferred to a later step. Under the paper's theorems the
// Maxport, Combine, and W-sort trees never defer; U-cube trees exhibit the
// serialization visible in Figure 3(d).
func NewSchedule(t *Tree, pm PortModel) *Schedule {
	switch pm {
	case OnePort:
		return scheduleOnePort(t)
	case AllPort:
		return scheduleAllPort(t)
	default:
		panic(fmt.Sprintf("core: unknown port model %v", pm))
	}
}

func scheduleOnePort(t *Tree) *Schedule {
	sc := getScratch(t)
	defer sc.release(t)
	s := &Schedule{Tree: t, Port: OnePort, Unicasts: make([]Unicast, 0, len(t.sends))}
	// Process nodes in reception order: construction order reaches
	// parents before children.
	for i, v := range t.Order {
		base := sc.recv[i]
		if base < 0 {
			panic(fmt.Sprintf("core: node %d scheduled before reached", v))
		}
		for k, snd := range t.SendsAt(i) {
			step := int(base) + k + 1
			s.Unicasts = append(s.Unicasts, Unicast{From: snd.From, To: snd.To, Step: step})
			sc.reached(snd.To, step)
		}
	}
	sortUnicasts(s.Unicasts)
	return s
}

func scheduleAllPort(t *Tree) *Schedule {
	sc := getScratch(t)
	defer sc.release(t)
	sc.pending(t)
	s := &Schedule{Tree: t, Port: AllPort, Unicasts: make([]Unicast, 0, len(t.sends))}
	remaining := len(t.sends)
	for step := 1; remaining > 0; step++ {
		if step > 2*len(t.sends)+len(t.Order)+8 {
			panic("core: all-port scheduler failed to make progress")
		}
		sc.arcs.nextStep()
		// Deterministic sender order: construction order.
		for i := range t.Order {
			pend := sc.pend[t.first[i] : t.first[i]+sc.left[i]]
			if len(pend) == 0 || sc.recv[i] < 0 || int(sc.recv[i]) >= step {
				continue // nothing left, or not yet holding the message at this step
			}
			var used uint64 // this sender's channels spoken for this step
			kept := pend[:0]
			for _, k := range pend {
				snd := &t.sends[k]
				bit := uint64(1) << uint(t.Cube.FirstHop(snd.From, snd.To))
				if used&bit == 0 {
					// Whether launched or blocked, the channel is
					// spoken for this step: later sends on it keep
					// their issue order.
					used |= bit
					if sc.arcs.claimPath(t.Cube, snd.From, snd.To) {
						s.Unicasts = append(s.Unicasts, Unicast{From: snd.From, To: snd.To, Step: step})
						sc.reached(snd.To, step)
						remaining--
						continue
					}
				}
				kept = append(kept, k)
			}
			sc.left[i] = int32(len(kept))
		}
	}
	sortUnicasts(s.Unicasts)
	return s
}

func sortUnicasts(us []Unicast) {
	slices.SortStableFunc(us, func(a, b Unicast) int {
		if c := cmp.Compare(a.Step, b.Step); c != 0 {
			return c
		}
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
}
