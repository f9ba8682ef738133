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
// shared session, launch through completion, with 1024-byte blocks: for
// the data collectives a 1 MiB input the launch consumes in place.
// Payloads are views of the senders' vectors, so no launch allocates
// per-step copies of the data; the all-to-all alone allocates its
// per-node send buffers (half the input, 512 KiB). The rest is the
// schedule's bookkeeping and about seven event and wormhole allocations
// per message — so the ring, with 2(N-1) steps per node against
// halving+doubling's 2n, costs the most. The timing-only barrier and
// all-gather rows pin that a payload-free exchange keeps no payload
// buffers.
func TestDataCollectiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	const dim, blockElems = 5, 128
	c := cube(dim)
	p := params(core.AllPort)
	pristine := RandomData(1993, c.Nodes(), c.Nodes()*blockElems)
	in := cloneRows(pristine)
	s := ncube.NewSession(p, c, ncube.Instrumentation{})
	defer s.Release()
	for _, tc := range []struct {
		name      string
		launch    func()
		maxAllocs float64
		maxKiB    float64
	}{
		{"allreduce-hd", func() { AllReduceHDOn(s, in, 0, nil) }, 2350, 215},
		{"reduce-scatter", func() { ReduceScatterOn(s, in, 0, nil) }, 1200, 110},
		{"allreduce-ring", func() { AllReduceRingOn(s, in, 0, nil) }, 14500, 1100},
		{"alltoall", func() { AllToAllOn(s, in, nil) }, 1200, 512 + 135},
		{"reduce-data", func() { ReduceDataOn(s, topology.NodeID(5), in, 0, nil) }, 250, 22},
		{"barrier", func() {
			dimensionExchange(s, func(topology.NodeID, int) (int, []float64) { return 8, nil }, 0, nil)
		}, 1168, 90.3},
		{"allgather", func() { AllGatherOn(s, blockElems*ElemBytes, nil) }, 1169, 90.3},
	} {
		run := func() {
			for v := range in {
				copy(in[v], pristine[v])
			}
			tc.launch()
			if err := s.Run(0, 0); err != nil {
				t.Fatal(err)
			}
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
