package ncube

import (
	"math/rand"
	"testing"

	"hypercube/internal/core"
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
