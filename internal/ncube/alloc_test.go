package ncube

import (
	"math/rand"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/faults"
	"hypercube/internal/topology"
)

// raceEnabled is set by race_test.go under -race, where sync.Pool drops
// items at random and allocation counts stop being deterministic.
var raceEnabled bool

// TestRunInstrumentedAllocs pins the executor's allocation count on W-sort
// trees: a pooled session (calendar, network, op and node slabs) leaves
// only the result's Recv map and the op's injection to allocate. The
// ceilings are the counts of the pre-session executor, which allocated a
// Result per run and grew an unsized Recv map.
func TestRunInstrumentedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	for _, tc := range []struct {
		dim, m int
		max    float64
	}{
		{5, 4, 3},
		{5, 12, 6},
		{10, 256, 16},
	} {
		cube := topology.New(tc.dim, topology.HighToLow)
		dests := randomDests(rand.New(rand.NewSource(1993)), tc.dim, 0, tc.m)
		tr := core.Build(cube, core.WSort, 0, dests)
		p := NCube2(core.AllPort)
		got := testing.AllocsPerRun(50, func() { RunInstrumented(p, tr, 4096, Instrumentation{}) })
		if got > tc.max {
			t.Errorf("%d-cube W-sort to %d dests: %v allocs/run, want <= %v", tc.dim, tc.m, got, tc.max)
		}
	}
}

// TestInjectFaultTolerantAllocs pins the allocation count of one
// fault-free fault-tolerant multicast injected on a pooled session, as the
// traffic engine issues them. A session-injected op runs without jitter,
// so it must not pay for a random source it never draws from.
func TestInjectFaultTolerantAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	cube := topology.New(5, topology.HighToLow)
	dests := randomDests(rand.New(rand.NewSource(1993)), 5, 0, 12)
	a := core.WSort
	p := NCube2(core.AllPort)
	got := testing.AllocsPerRun(50, func() {
		s := NewSession(p, cube, Instrumentation{})
		s.InjectFaultTolerant(0, a, 0, dests, 4096, nil, nil)
		if err := s.Run(0, 0); err != nil {
			t.Fatal(err)
		}
		s.Release()
	})
	const max = 273 // an unused rand.NewSource adds 2
	if got > max {
		t.Errorf("session-injected FT multicast: %v allocs/run, want <= %v", got, max)
	}
}

// TestOnePortAllocs pins that a one-port multicast allocates no more than
// an all-port one on a warmed session, with and without a fault model
// installed: the one-port model waits for each send's fate before issuing
// the next, and the op takes that fate — delivery or loss — as the send's
// own receiver instead of a closure per send.
func TestOnePortAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	cube := topology.New(6, topology.HighToLow)
	tr := core.Build(cube, core.WSort, 0, randomDests(rand.New(rand.NewSource(1993)), 6, 0, 32))
	inj := faults.New(faults.Plan{}) // installed, but never fails anything
	allocs := func(port core.PortModel, faulted bool) float64 {
		p := NCube2(port)
		return testing.AllocsPerRun(50, func() {
			s := NewSession(p, cube, Instrumentation{})
			if faulted {
				s.SetFaults(inj)
			}
			s.InjectTree(0, tr, 4096, nil)
			if err := s.Run(0, 0); err != nil {
				t.Fatal(err)
			}
			s.Release()
		})
	}
	for _, faulted := range []bool{false, true} {
		all, one := allocs(core.AllPort, faulted), allocs(core.OnePort, faulted)
		t.Logf("faulted=%v: all-port %v, one-port %v allocs/run", faulted, all, one)
		if one > all {
			t.Errorf("faulted=%v: one-port multicast %v allocs/run, all-port %v", faulted, one, all)
		}
	}
}
