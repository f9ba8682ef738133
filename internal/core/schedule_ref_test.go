package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hypercube/internal/topology"
)

// The map-based schedulers below are the reference the dense schedulers
// are diffed against: per-step claimed-arc and used-channel maps, a
// pending map of copied send lists, and a receive-step map. They read the
// tree only through its sender map, rebuilt by refSends.

// refSends is the tree's sender -> sends map, with an entry (possibly
// empty) for every node in Order.
func refSends(t *Tree) map[topology.NodeID][]Send {
	m := make(map[topology.NodeID][]Send, len(t.Order))
	for i, v := range t.Order {
		m[v] = t.SendsAt(i)
	}
	return m
}

type refSchedule struct {
	Unicasts []Unicast
	Recv     map[topology.NodeID]int
}

func refScheduleOnePort(t *Tree) *refSchedule {
	sends := refSends(t)
	s := &refSchedule{Recv: map[topology.NodeID]int{t.Source: 0}}
	for _, v := range t.Order {
		base, ok := s.Recv[v]
		if !ok {
			panic(fmt.Sprintf("core: node %d scheduled before reached", v))
		}
		for k, snd := range sends[v] {
			step := base + k + 1
			s.Unicasts = append(s.Unicasts, Unicast{From: snd.From, To: snd.To, Step: step})
			s.Recv[snd.To] = step
		}
	}
	refSortUnicasts(s.Unicasts)
	return s
}

func refScheduleAllPort(t *Tree) *refSchedule {
	s := &refSchedule{Recv: map[topology.NodeID]int{t.Source: 0}}
	all := refSends(t)
	pending := make(map[topology.NodeID][]Send, len(all))
	remaining := 0
	for v, sends := range all {
		if len(sends) > 0 {
			pending[v] = append([]Send(nil), sends...)
			remaining += len(sends)
		}
	}
	total := remaining
	for step := 1; remaining > 0; step++ {
		if step > 2*total+len(t.Order)+8 {
			panic("core: all-port scheduler failed to make progress")
		}
		claimed := map[topology.Arc]bool{}
		type chanKey struct {
			node topology.NodeID
			dim  int
		}
		usedChannel := map[chanKey]bool{}
		for _, v := range t.Order {
			sends := pending[v]
			if len(sends) == 0 {
				continue
			}
			recv, ok := s.Recv[v]
			if !ok || recv >= step {
				continue
			}
			kept := sends[:0]
			for _, snd := range sends {
				dim := t.Cube.FirstHop(snd.From, snd.To)
				key := chanKey{v, dim}
				if usedChannel[key] {
					kept = append(kept, snd)
					continue
				}
				arcs := t.Cube.PathArcs(snd.From, snd.To)
				conflict := false
				for _, a := range arcs {
					if claimed[a] {
						conflict = true
						break
					}
				}
				usedChannel[key] = true
				if conflict {
					kept = append(kept, snd)
					continue
				}
				for _, a := range arcs {
					claimed[a] = true
				}
				s.Unicasts = append(s.Unicasts, Unicast{From: snd.From, To: snd.To, Step: step})
				s.Recv[snd.To] = step
				remaining--
			}
			if len(kept) == 0 {
				delete(pending, v)
			} else {
				pending[v] = append([]Send(nil), kept...)
			}
		}
	}
	refSortUnicasts(s.Unicasts)
	return s
}

func refSortUnicasts(us []Unicast) {
	sort.SliceStable(us, func(i, j int) bool {
		if us[i].Step != us[j].Step {
			return us[i].Step < us[j].Step
		}
		if us[i].From != us[j].From {
			return us[i].From < us[j].From
		}
		return us[i].To < us[j].To
	})
}

// diffSchedule fails unless s has exactly the reference schedule's
// unicasts and receive steps for every node of the cube.
func diffSchedule(t *testing.T, label string, s *Schedule, want *refSchedule) {
	t.Helper()
	if len(s.Unicasts) != len(want.Unicasts) {
		t.Fatalf("%s: %d unicasts, reference %d", label, len(s.Unicasts), len(want.Unicasts))
	}
	for i, u := range s.Unicasts {
		if u != want.Unicasts[i] {
			t.Fatalf("%s: unicast %d = %+v, reference %+v", label, i, u, want.Unicasts[i])
		}
	}
	for v := 0; v < s.Tree.Cube.Nodes(); v++ {
		got, ok := s.RecvStep(topology.NodeID(v))
		w, wok := want.Recv[topology.NodeID(v)]
		if got != w || ok != wok {
			t.Fatalf("%s: RecvStep(%d) = %d,%v, reference %d,%v", label, v, got, ok, w, wok)
		}
	}
}

// forceSparse lowers denseNodeLimit so every cube in the test uses the
// map-backed scratch.
func forceSparse(t *testing.T) {
	t.Helper()
	old := denseNodeLimit
	denseNodeLimit = 0
	t.Cleanup(func() { denseNodeLimit = old })
}

// randomTree returns an arbitrary well-formed tree on c: m nodes besides a
// random source, each sent to by a random node already holding the
// message. Unlike the algorithms' trees, its senders reuse channels and
// their sends collide, which exercises every deferral rule.
func randomTree(rng *rand.Rand, c topology.Cube, m int) *Tree {
	perm := rng.Perm(c.Nodes())
	var sends []Send
	for k := 1; k <= m; k++ {
		from := topology.NodeID(perm[rng.Intn(k)])
		sends = append(sends, Send{From: from, To: topology.NodeID(perm[k])})
	}
	return grouped(c, SeparateAddressing, topology.NodeID(perm[0]), sends)
}

// TestScheduleMatchesReference diffs both schedulers against the map-based
// reference on random trees: every algorithm, centrally built and
// distributed, plus arbitrary trees, under both port models and
// resolutions, dims 1-12, with dense and forced-sparse scratch.
func TestScheduleMatchesReference(t *testing.T) {
	run := func(t *testing.T, trials int) {
		rng := rand.New(rand.NewSource(1993))
		for n := 1; n <= 12; n++ {
			for _, res := range []topology.Resolution{topology.HighToLow, topology.LowToHigh} {
				c := topology.New(n, res)
				for trial := 0; trial < trials; trial++ {
					src := topology.NodeID(rng.Intn(c.Nodes()))
					// At most 1023 random destinations, plus a broadcast up
					// to the 10-cube: the reference's maps make larger
					// trees slow to diff.
					m := 1 + rng.Intn(min(c.Nodes()-1, 1023))
					if trial == 0 && n <= 10 {
						m = c.Nodes() - 1
					}
					dests := randomDests(rng, n, src, m)
					for k := 0; k < 4; k++ {
						tr := randomTree(rng, c, m)
						label := fmt.Sprintf("n=%d %v arbitrary tree m=%d", n, res, m)
						diffSchedule(t, label+" one-port", NewSchedule(tr, OnePort), refScheduleOnePort(tr))
						diffSchedule(t, label+" all-port", NewSchedule(tr, AllPort), refScheduleAllPort(tr))
					}
					for _, a := range Algorithms() {
						for bi, build := range []func(topology.Cube, Algorithm, topology.NodeID, []topology.NodeID) *Tree{Build, BuildDistributed} {
							tr := build(c, a, src, dests)
							label := fmt.Sprintf("n=%d %v %v build=%d m=%d", n, res, a, bi, m)
							diffSchedule(t, label+" one-port", NewSchedule(tr, OnePort), refScheduleOnePort(tr))
							diffSchedule(t, label+" all-port", NewSchedule(tr, AllPort), refScheduleAllPort(tr))
						}
					}
				}
			}
		}
	}
	t.Run("dense", func(t *testing.T) { run(t, 4) })
	t.Run("sparse", func(t *testing.T) {
		forceSparse(t)
		run(t, 2)
	})
}

// refCheckContention is the map-based Definition 4 check: a reachable set
// per earlier sender and an arc set per pair.
func refCheckContention(s *Schedule) []Contention {
	t := s.Tree
	sends := refSends(t)
	us := s.Unicasts
	arcs := make([][]topology.Arc, len(us))
	for i, u := range us {
		arcs[i] = t.Cube.PathArcs(u.From, u.To)
	}
	reach := map[topology.NodeID]map[topology.NodeID]bool{}
	reachOf := func(u topology.NodeID) map[topology.NodeID]bool {
		r, ok := reach[u]
		if !ok {
			r = map[topology.NodeID]bool{u: true}
			stack := []topology.NodeID{u}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, s := range sends[v] {
					if !r[s.To] {
						r[s.To] = true
						stack = append(stack, s.To)
					}
				}
			}
			reach[u] = r
		}
		return r
	}
	var out []Contention
	for i := 0; i < len(us); i++ {
		for j := i + 1; j < len(us); j++ {
			a, b := i, j
			if us[a].Step > us[b].Step {
				a, b = b, a
			}
			set := make(map[topology.Arc]bool, len(arcs[a]))
			for _, x := range arcs[a] {
				set[x] = true
			}
			var shared topology.Arc
			ok := false
			for _, y := range arcs[b] {
				if set[y] {
					shared, ok = y, true
					break
				}
			}
			if !ok {
				continue
			}
			if us[a].Step < us[b].Step && reachOf(us[a].From)[us[b].From] {
				continue
			}
			out = append(out, Contention{Earlier: us[a], Later: us[b], SharedArc: shared})
		}
	}
	return out
}

// TestCheckContentionMatchesReference diffs CheckContention, shared arcs
// included, against the map-based check on schedules of arbitrary and
// algorithm-built trees, where many pairs contend.
func TestCheckContentionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	found := 0
	for n := 1; n <= 8; n++ {
		for _, res := range []topology.Resolution{topology.HighToLow, topology.LowToHigh} {
			c := topology.New(n, res)
			for trial := 0; trial < 3; trial++ {
				src := topology.NodeID(rng.Intn(c.Nodes()))
				m := 1 + rng.Intn(c.Nodes()-1)
				trees := []*Tree{randomTree(rng, c, m)}
				for _, a := range Algorithms() {
					trees = append(trees, Build(c, a, src, randomDests(rng, n, src, m)))
				}
				for _, tr := range trees {
					for _, pm := range []PortModel{OnePort, AllPort} {
						s := NewSchedule(tr, pm)
						got, want := CheckContention(s), refCheckContention(s)
						if len(got) != len(want) {
							t.Fatalf("n=%d %v %v %v: %d contentions, reference %d", n, res, tr.Algorithm, pm, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("n=%d %v %v %v: contention %d = %v, reference %v", n, res, tr.Algorithm, pm, i, got[i], want[i])
							}
						}
						found += len(got)
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no schedule contended: the check was never exercised")
	}
	t.Logf("%d contentions compared", found)
}
