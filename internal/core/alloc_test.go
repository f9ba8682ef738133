package core

import (
	"math/rand"
	"testing"

	"hypercube/internal/topology"
)

// raceEnabled is set by race_test.go under -race, where sync.Pool drops
// items at random and allocation counts stop being deterministic.
var raceEnabled bool

// TestBuildScheduleAllocs pins the allocation count of building a tree and
// scheduling it all-port. A chain tree is four slices and its header; a
// schedule is its header and unicast slice, with the scheduler's working
// set drawn from a pool.
func TestBuildScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	for _, tc := range []struct {
		dim, m int
		a      Algorithm
		max    float64
	}{
		{6, 32, WSort, 7},
		{10, 256, UCube, 7},
	} {
		c := topology.New(tc.dim, topology.HighToLow)
		dests := randomDests(rand.New(rand.NewSource(1993)), tc.dim, 0, tc.m)
		got := testing.AllocsPerRun(50, func() { NewSchedule(Build(c, tc.a, 0, dests), AllPort) })
		t.Logf("%d-cube %v to %d dests: %v allocs", tc.dim, tc.a, tc.m, got)
		if got > tc.max {
			t.Errorf("%d-cube %v to %d dests: %v allocs/run, want <= %v", tc.dim, tc.a, tc.m, got, tc.max)
		}
	}
}
