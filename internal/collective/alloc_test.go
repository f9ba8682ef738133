package collective

import (
	"runtime"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
)

// raceEnabled is set by race_test.go under -race, where sync.Pool drops
// items at random and allocation counts stop being deterministic.
var raceEnabled bool

// TestDataCollectiveAllocs pins what one 5-cube collective costs on a
// warm pooled session, borrow through Release as real callers do, with
// 1024-byte blocks: for the data collectives a 1 MiB input the launch
// consumes in place. Messages are session-slab steps that carry no
// payload, so every launch — the ring's 1,984 messages included — costs a
// constant number of allocations for its result and per-node tables, and
// no bytes that scale with the vector or the message count. The ceilings
// are the measured counts plus two allocations and about a KiB.
func TestDataCollectiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	const dim, blockElems = 5, 128
	c := cube(dim)
	p := params(core.AllPort)
	pristine := RandomData(1993, c.Nodes(), c.Nodes()*blockElems)
	in := cloneRows(pristine)
	for _, tc := range []struct {
		name      string
		launch    func(s *ncube.Session)
		maxAllocs float64
		maxKiB    float64
	}{
		{"allreduce-hd", func(s *ncube.Session) { AllReduceHDOn(s, in, 0, nil) }, 12, 3},
		{"reduce-scatter", func(s *ncube.Session) { ReduceScatterOn(s, in, 0, nil) }, 13, 4},
		{"allreduce-ring", func(s *ncube.Session) { AllReduceRingOn(s, in, 0, nil) }, 15, 3.5},
		{"alltoall", func(s *ncube.Session) { AllToAllOn(s, in, nil) }, 11, 3},
		{"reduce-data", func(s *ncube.Session) { ReduceDataOn(s, topology.NodeID(5), in, 0, nil) }, 12, 3},
		{"barrier", func(s *ncube.Session) { dimensionExchange(s, func(int) int { return 8 }, 0, nil) }, 10, 3},
		{"allgather", func(s *ncube.Session) { AllGatherOn(s, blockElems*ElemBytes, nil) }, 10, 3},
		{"scatter", func(s *ncube.Session) { ScatterOn(s, 5, blockElems*ElemBytes, nil) }, 8, 2.5},
	} {
		run := func() {
			for v := range in {
				copy(in[v], pristine[v])
			}
			s := ncube.NewSession(p, c, ncube.Instrumentation{})
			tc.launch(s)
			if err := s.Run(0, 0); err != nil {
				t.Fatal(err)
			}
			s.Release()
		}
		allocs := testing.AllocsPerRun(20, run)
		kib := bytesPerRun(20, run) / 1024
		t.Logf("%s: %.0f allocs, %.1f KiB per launch", tc.name, allocs, kib)
		if allocs > tc.maxAllocs {
			t.Errorf("%s: %.0f allocs per launch, want <= %.0f", tc.name, allocs, tc.maxAllocs)
		}
		if kib > tc.maxKiB {
			t.Errorf("%s: %.1f KiB per launch, want <= %.1f", tc.name, kib, tc.maxKiB)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
