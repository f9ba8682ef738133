package collective

import (
	"math/rand"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/topology"
)

func randomMembers(rng *rand.Rand, c topology.Cube, src topology.NodeID, m int) []topology.NodeID {
	perm := rng.Perm(c.Nodes())
	var out []topology.NodeID
	for _, p := range perm {
		if topology.NodeID(p) != src && len(out) < m {
			out = append(out, topology.NodeID(p))
		}
	}
	return out
}

// Every receiver of every algorithm's tree contributes exactly once and
// the root assembles the result.
func TestReduceTreeCompleteness(t *testing.T) {
	c := cube(6)
	p := params(core.AllPort)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		src := topology.NodeID(rng.Intn(64))
		members := randomMembers(rng, c, src, 1+rng.Intn(40))
		for _, a := range core.Algorithms() {
			tr := core.Build(c, a, src, members)
			r := ReduceTree(p, tr, 2048, 5*event.Microsecond)
			// SFBinomial's receivers include relays beyond the members.
			recv := len(tr.Destinations())
			if r.Messages != recv {
				t.Fatalf("%v: %d messages for %d receivers", a, r.Messages, recv)
			}
			if len(r.Finish) != recv+1 {
				t.Fatalf("%v: %d finishers", a, len(r.Finish))
			}
			rootFinish := r.Finish[src]
			for v, f := range r.Finish {
				if f > rootFinish {
					t.Fatalf("%v: member %v finished after the root", a, v)
				}
			}
		}
	}
}

// The root's completion dominates the deepest member's chain.
func TestReduceTreeDepthDominates(t *testing.T) {
	c := cube(5)
	p := params(core.AllPort)
	src := topology.NodeID(0)
	members := []topology.NodeID{1, 3, 7, 15, 31} // a chain of increasing depth
	tr := core.Build(c, core.UCube, src, members)
	r := ReduceTree(p, tr, 1024, 0)
	minBound := event.Time(tr.Height()) * (p.TStartup + p.TRecv)
	if r.Finish[src] < minBound {
		t.Errorf("root finished at %v, below depth bound %v", r.Finish[src], minBound)
	}
}

// The whole-cube ReduceTree on a Maxport broadcast tree matches the
// dedicated binomial Reduce in structure: same message count, and both
// physically contention-free (the broadcast tree's edges are single-hop).
func TestReduceTreeBroadcastEquivalence(t *testing.T) {
	c := cube(5)
	p := params(core.AllPort)
	var all []topology.NodeID
	for v := 1; v < c.Nodes(); v++ {
		all = append(all, topology.NodeID(v))
	}
	tr := core.Build(c, core.Maxport, 0, all)
	rt := ReduceTree(p, tr, 1024, 0)
	rd := Reduce(p, c, 0, 1024, 0)
	if rt.Messages != rd.Messages {
		t.Errorf("messages %d vs %d", rt.Messages, rd.Messages)
	}
	if rt.TotalBlocked != 0 {
		t.Errorf("broadcast-tree reduction blocked %v", rt.TotalBlocked)
	}
}

// The duality caveat: reversing a contention-free multicast tree need NOT
// be contention-free, because the upward E-cube path differs from the
// reversed downward path. Completion is guaranteed regardless; record that
// blocking does occur somewhere (documenting the asymmetry), while
// single-hop trees never block.
func TestReduceTreeDualityAsymmetry(t *testing.T) {
	c := cube(6)
	p := params(core.AllPort)
	rng := rand.New(rand.NewSource(43))
	blockedSomewhere := false
	for trial := 0; trial < 60; trial++ {
		src := topology.NodeID(rng.Intn(64))
		members := randomMembers(rng, c, src, 20+rng.Intn(30))
		tr := core.Build(c, core.WSort, src, members)
		r := ReduceTree(p, tr, 4096, 0)
		if len(r.Finish) != len(members)+1 {
			t.Fatalf("lost contributions: %d", len(r.Finish))
		}
		if r.TotalBlocked > 0 {
			blockedSomewhere = true
		}
	}
	if !blockedSomewhere {
		t.Log("no reverse-tree blocking observed; duality may hold more often than expected")
	}
}

func TestReduceTreeValidation(t *testing.T) {
	c := cube(4)
	tr := core.Build(c, core.WSort, 0, []topology.NodeID{5})
	defer func() {
		if recover() == nil {
			t.Fatal("negative bytes did not panic")
		}
	}()
	ReduceTree(params(core.AllPort), tr, -1, 0)
}

// Empty tree: only the source, which finishes immediately.
func TestReduceTreeEmpty(t *testing.T) {
	c := cube(4)
	tr := core.Build(c, core.WSort, 3, nil)
	r := ReduceTree(params(core.AllPort), tr, 64, 0)
	if len(r.Finish) != 1 || r.Messages != 0 {
		t.Fatalf("empty reduce: %+v", r)
	}
}

// ReduceTree's Makespan is its latest finish — the root's, which absorbs
// every contribution last.
func TestReduceTreeMakespan(t *testing.T) {
	c := cube(5)
	rng := rand.New(rand.NewSource(47))
	for _, pm := range []core.PortModel{core.AllPort, core.OnePort} {
		for trial := 0; trial < 20; trial++ {
			src := topology.NodeID(rng.Intn(c.Nodes()))
			members := randomMembers(rng, c, src, 1+rng.Intn(c.Nodes()-1))
			for _, a := range core.Algorithms() {
				r := ReduceTree(params(pm), core.Build(c, a, src, members), 512, 3*event.Microsecond)
				var last event.Time
				for _, f := range r.Finish {
					last = max(last, f)
				}
				if r.Makespan != last || last == 0 {
					t.Fatalf("%v %v src=%v: makespan %v, latest finish %v", pm, a, src, r.Makespan, last)
				}
			}
		}
	}
}
