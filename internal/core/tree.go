// Package core implements the paper's multicast algorithms and execution
// models: the U-cube baseline (Figure 4), the new all-port algorithms
// Maxport, Combine, and W-sort (Sections 4.1–4.2), plus the unicast-per-
// destination and store-and-forward baselines of Section 2. It also provides
// the stepwise schedulers for one-port and all-port architectures and the
// contention-freedom checker of Definition 4.
package core

import (
	"fmt"
	"slices"

	"hypercube/internal/chain"
	"hypercube/internal/topology"
)

// Algorithm identifies a multicast tree construction algorithm.
type Algorithm int

const (
	// SeparateAddressing sends one unicast from the source to every
	// destination (Section 2's naive baseline).
	SeparateAddressing Algorithm = iota
	// SFBinomial is the store-and-forward-era recursive-doubling tree of
	// Figure 3(a); intermediate non-destination processors relay the
	// message in software.
	SFBinomial
	// UCube is the one-port-optimal algorithm of Figure 4 (McKinley et
	// al. 1992): next = center.
	UCube
	// Maxport exploits all ports maximally: next = highdim.
	Maxport
	// Combine balances port usage against subtree weight:
	// next = max(highdim, center).
	Combine
	// WSort applies weighted_sort to the chain and then runs Maxport
	// (Section 4.2).
	WSort
)

var algorithmNames = map[Algorithm]string{
	SeparateAddressing: "separate",
	SFBinomial:         "sf-binomial",
	UCube:              "u-cube",
	Maxport:            "maxport",
	Combine:            "combine",
	WSort:              "w-sort",
}

func (a Algorithm) String() string {
	if s, ok := algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms lists every implemented algorithm in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{SeparateAddressing, SFBinomial, UCube, Maxport, Combine, WSort}
}

// ParseAlgorithm resolves a name produced by Algorithm.String.
func ParseAlgorithm(name string) (Algorithm, error) {
	for a, s := range algorithmNames {
		if s == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", name)
}

// Send is one constituent unicast of a multicast tree, in absolute node
// addresses. Payload carries the relative sub-chain the recipient becomes
// responsible for (To first); it is what a real implementation would place
// in the message's address field. A payload may be a capacity-clipped
// window into the chain it was split from, shared with other sends' payloads:
// payloads are read-only.
type Send struct {
	From, To topology.NodeID
	Payload  chain.Chain
}

// Tree is a multicast implementation: a tree of unicasts rooted at Source
// covering every destination. Sends are stored in one slice grouped by
// sender in Order order, each sender's run in issue order — the order in
// which the algorithm emits them at that node, which the schedulers must
// respect per outgoing channel. SendsAt(i) is the run of Order[i].
type Tree struct {
	Cube      topology.Cube
	Source    topology.NodeID
	Algorithm Algorithm
	// Order lists senders in construction order (source first, then
	// recipients in the order they were reached). Deterministic. Trees
	// grown breadth first (chain algorithms, and every BuildDistributed
	// tree) also list their leaves; Build's SF-binomial and
	// separate-addressing trees list senders only.
	Order []topology.NodeID

	sends []Send
	first []int32 // Order[i] sends sends[first[i]:first[i+1]]
}

// SendsAt returns the sends of Order[i] in issue order. The slice aliases
// the tree and must not be modified.
func (t *Tree) SendsAt(i int) []Send {
	return t.sends[t.first[i]:t.first[i+1]:t.first[i+1]]
}

// SendsFrom returns the sends of node v in issue order (nil when v sends
// nothing). It scans Order; hot paths walk Order with SendsAt instead.
func (t *Tree) SendsFrom(v topology.NodeID) []Send {
	for i, u := range t.Order {
		if u == v {
			return t.SendsAt(i)
		}
	}
	return nil
}

// Build constructs the multicast tree for algorithm a from src to dests on
// cube c. Duplicate destinations and a destination equal to src are ignored.
func Build(c topology.Cube, a Algorithm, src topology.NodeID, dests []topology.NodeID) *Tree {
	ch := chain.Relative(c, src, dests)
	switch a {
	case SeparateAddressing:
		return buildSeparate(c, src, ch)
	case SFBinomial:
		return buildSFBinomial(c, src, ch)
	case UCube:
		return buildChainTree(c, a, src, ch, nextCenter)
	case Maxport:
		return buildChainTree(c, a, src, ch, nextHighdim)
	case Combine:
		return buildChainTree(c, a, src, ch, nextCombine)
	case WSort:
		ch.WeightedSort(c.Dim())
		return buildChainTree(c, a, src, ch, nextHighdim)
	default:
		panic(fmt.Sprintf("core: unknown algorithm %v", a))
	}
}

// next-selection policies for the unified chain splitter (Section 4.1).
// Each receives the chain and the responsibility range [left, right] of the
// local node ch[left] and returns the chain index to transmit to next.

func nextCenter(ch chain.Chain, left, right int) int {
	return left + (right-left+1)/2 // left + ceil((right-left)/2)
}

func nextHighdim(ch chain.Chain, left, right int) int {
	return ch.FirstWithDelta(left, right)
}

func nextCombine(ch chain.Chain, left, right int) int {
	c := nextCenter(ch, left, right)
	h := nextHighdim(ch, left, right)
	if c > h {
		return c
	}
	return h
}

// buildChainTree runs the generic splitter of Figure 4 with a pluggable
// next-selection policy at every node, in BFS order.
func buildChainTree(c topology.Cube, a Algorithm, src topology.NodeID, ch chain.Chain, policy func(chain.Chain, int, int) int) *Tree {
	t := &Tree{
		Cube: c, Source: src, Algorithm: a,
		Order: make([]topology.NodeID, 0, len(ch)),
		sends: make([]Send, 0, len(ch)-1),
		first: make([]int32, 0, len(ch)+1),
	}
	return t.grow(ch, func(dst []Send, _ topology.NodeID, p chain.Chain) []Send {
		return appendChainSends(dst, c, src, p, policy)
	})
}

// grow completes an empty t breadth first from the source's address
// field: every node, in delivery order, appends the sends local derives
// from the payload it received. Delivery k carries send k-1, so the walk
// indexes the sends already emitted instead of keeping a queue, Order
// lists every node (leaves included) with Order[k+1] == sends[k].To, and
// each node's sends land contiguously in Order order.
func (t *Tree) grow(payload chain.Chain, local func(dst []Send, node topology.NodeID, payload chain.Chain) []Send) *Tree {
	t.Order = append(t.Order, t.Source)
	t.first = append(t.first, 0)
	t.sends = local(t.sends, t.Source, payload)
	for k := 0; k < len(t.sends); k++ {
		s := t.sends[k]
		t.Order = append(t.Order, s.To)
		t.first = append(t.first, int32(len(t.sends)))
		t.sends = local(t.sends, s.To, s.Payload)
	}
	t.first = append(t.first, int32(len(t.sends)))
	return t
}

// appendChainSends appends the unicasts node ch[0] issues for its
// sub-chain ch, in issue order: it repeatedly transmits to ch[next] the
// tail [next+1..right] and shrinks its own responsibility to
// [0..next-1]. Payloads are capacity-clipped windows of ch.
func appendChainSends(dst []Send, c topology.Cube, src topology.NodeID, ch chain.Chain, policy func(chain.Chain, int, int) int) []Send {
	if len(ch) == 0 {
		return dst
	}
	from := absOf(c, src, ch[0])
	for right := len(ch) - 1; right > 0; {
		next := policy(ch, 0, right)
		if next <= 0 || next > right {
			panic(fmt.Sprintf("core: policy returned %d outside (0,%d]", next, right))
		}
		dst = append(dst, Send{From: from, To: absOf(c, src, ch[next]), Payload: ch[next : right+1 : right+1]})
		right = next - 1
	}
	return dst
}

// grouped returns the tree of sends listed in any sender order: Order is
// the source followed by every other sender in order of its first send,
// and each sender's sends keep their relative order.
func grouped(c topology.Cube, a Algorithm, src topology.NodeID, sends []Send) *Tree {
	t := &Tree{Cube: c, Source: src, Algorithm: a, Order: []topology.NodeID{src}}
	pos := map[topology.NodeID]int32{src: 0}
	for _, s := range sends {
		if _, ok := pos[s.From]; !ok {
			pos[s.From] = int32(len(t.Order))
			t.Order = append(t.Order, s.From)
		}
	}
	t.first = make([]int32, len(t.Order)+1)
	for _, s := range sends {
		t.first[pos[s.From]+1]++
	}
	for i := 1; i < len(t.first); i++ {
		t.first[i] += t.first[i-1]
	}
	fill := slices.Clone(t.first[:len(t.Order)])
	t.sends = make([]Send, len(sends))
	for _, s := range sends {
		i := pos[s.From]
		t.sends[fill[i]] = s
		fill[i]++
	}
	return t
}

// Unicasts returns every constituent unicast, senders in construction order
// and each sender's sends in issue order.
func (t *Tree) Unicasts() []Send {
	return slices.Clone(t.sends)
}

// Destinations returns the set of nodes that receive the message, in
// ascending address order. For chain algorithms this equals the destination
// set; for SFBinomial it also includes relay processors.
func (t *Tree) Destinations() []topology.NodeID {
	out := make([]topology.NodeID, len(t.sends))
	for i, s := range t.sends {
		out[i] = s.To
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Parent returns each receiver's sender. The source has no entry.
func (t *Tree) Parent() map[topology.NodeID]topology.NodeID {
	p := make(map[topology.NodeID]topology.NodeID, len(t.sends))
	for _, s := range t.sends {
		p[s.To] = s.From
	}
	return p
}

// Reachable returns R_u (Definition 3): the nodes that receive the message
// directly or indirectly through u, plus u itself.
func (t *Tree) Reachable(u topology.NodeID) map[topology.NodeID]bool {
	r := map[topology.NodeID]bool{u: true}
	stack := []topology.NodeID{u}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range t.SendsFrom(v) {
			if !r[s.To] {
				r[s.To] = true
				stack = append(stack, s.To)
			}
		}
	}
	return r
}

// Validate panics unless the tree is a well-formed multicast rooted at
// Source: the send layout is consistent (one offset per Order entry plus
// one, starting at 0, monotone, ending at the send count), every send in
// SendsAt(i) is issued by Order[i], no node appears twice in Order, no node
// is reached twice (the source counts as reached), and every sender was
// reached before Order lists it. It does not compare the receivers with a
// destination set; callers check coverage against Destinations.
func (t *Tree) Validate() {
	if len(t.first) != len(t.Order)+1 || t.first[0] != 0 || int(t.first[len(t.Order)]) != len(t.sends) {
		panic("core: send offsets do not match Order")
	}
	listed := make(map[topology.NodeID]bool, len(t.Order))
	reached := map[topology.NodeID]bool{t.Source: true}
	for i, v := range t.Order {
		if t.first[i] > t.first[i+1] {
			panic("core: send offsets not monotone")
		}
		if listed[v] {
			panic(fmt.Sprintf("core: node %d listed twice in Order", v))
		}
		listed[v] = true
		sends := t.SendsAt(i)
		if !reached[v] && len(sends) > 0 {
			panic(fmt.Sprintf("core: node %d sends before receiving", v))
		}
		for _, s := range sends {
			if s.From != v {
				panic("core: send stored under wrong sender")
			}
			if reached[s.To] {
				panic(fmt.Sprintf("core: node %d reached twice", s.To))
			}
			reached[s.To] = true
		}
	}
}
