package collective

import (
	"runtime"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/topology"
	"hypercube/internal/wormhole"
)

// raceEnabled is set by race_test.go under -race, where sync.Pool drops
// items at random and allocation counts stop being deterministic.
var raceEnabled bool

// TestDataCollectiveAllocs pins what one 5-cube data collective costs on a
// shared substrate, launch through completion, with 1024-byte blocks: a
// 1 MiB input the launch consumes in place. Payloads are views of the
// senders' vectors, so no launch allocates per-step copies of the data;
// the all-to-all alone allocates its per-node send buffers (half the
// input, 512 KiB). The rest is the schedule's bookkeeping and about seven
// event and wormhole allocations per message — so the ring, with 2(N-1)
// steps per node against halving+doubling's 2n, costs the most.
func TestDataCollectiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	const dim, blockElems = 5, 128
	c := cube(dim)
	p := params(core.AllPort)
	pristine := RandomData(1993, c.Nodes(), c.Nodes()*blockElems)
	in := cloneRows(pristine)
	q := &event.Queue{}
	sub := Substrate{Queue: q, Net: wormhole.New(q, c, p.NetConfig()), Params: p}
	for _, tc := range []struct {
		name      string
		launch    func() *DataResult
		maxAllocs float64
		maxKiB    float64
	}{
		{"allreduce-hd", func() *DataResult { return AllReduceHDOn(sub, in, 0) }, 2350, 215},
		{"reduce-scatter", func() *DataResult { return ReduceScatterOn(sub, in, 0) }, 1200, 110},
		{"allreduce-ring", func() *DataResult { return AllReduceRingOn(sub, in, 0) }, 14500, 1100},
		{"alltoall", func() *DataResult { return AllToAllOn(sub, in) }, 1200, 512 + 135},
		{"reduce-data", func() *DataResult { return ReduceDataOn(sub, topology.NodeID(5), in, 0) }, 250, 22},
	} {
		run := func() {
			for v := range in {
				copy(in[v], pristine[v])
			}
			tc.launch()
			q.MustRun(0, 0)
		}
		allocs := testing.AllocsPerRun(20, run)
		kib := bytesPerRun(20, run) / 1024
		t.Logf("%s: %.0f allocs, %.1f KiB per launch", tc.name, allocs, kib)
		if allocs > tc.maxAllocs {
			t.Errorf("%s: %.0f allocs per launch, want <= %.0f", tc.name, allocs, tc.maxAllocs)
		}
		if kib > tc.maxKiB {
			t.Errorf("%s: %.1f KiB per launch, want <= %.0f", tc.name, kib, tc.maxKiB)
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
