package collective

import (
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
)

// ReduceTree executes the *reverse* of a multicast tree: a convergecast in
// which every member's contribution flows up the tree's edges to the
// source, combined at each interior node. This extends reduction from the
// whole cube (Reduce) to arbitrary subsets: build a multicast tree over
// the member set with any algorithm, then run it backwards.
//
// A subtlety the tests explore: the upward unicast from child to parent
// takes the E-cube path P(child, parent), which generally differs from the
// reverse of P(parent, child), so the paper's downward contention-freedom
// does not automatically dualize. The operation is always correct; its
// blocking time is reported for measurement.
func ReduceTree(p ncube.Params, tr *core.Tree, bytes int, tCompute event.Time) Result {
	if bytes < 0 || tCompute < 0 {
		panic("collective: negative reduce parameter")
	}
	up := reverseTree(tr)
	return run(p, tr.Cube, func(s *ncube.Session) *Result {
		return &convergecastOn(s, up, fixedBytes(bytes), nil, tCompute, nil).dr.Result
	})
}

// reverseTree is tr run backwards: the members are the source plus every
// receiver (Order lists senders only, and some trees' leaves never send),
// each member sends to the node it received from, and the members launch
// in ascending address order. A sender that neither is the source nor
// receives has no parent to send to, so the tree is malformed.
func reverseTree(tr *core.Tree) upTree {
	nodes := tr.Cube.Nodes()
	t := upTree{
		root:    tr.Source,
		parent:  make([]topology.NodeID, nodes),
		pending: make([]int, nodes),
	}
	member := make([]bool, nodes)
	member[tr.Source] = true
	for i, v := range tr.Order {
		sends := tr.SendsAt(i)
		t.pending[v] = len(sends)
		for _, s := range sends {
			t.parent[s.To] = v
			member[s.To] = true
		}
	}
	for v, in := range member {
		if in {
			t.order = append(t.order, topology.NodeID(v))
		} else if t.pending[v] > 0 {
			panic("collective: tree member without a parent")
		}
	}
	return t
}
