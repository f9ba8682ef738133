// Native fuzz target for the data-carrying reduction collectives: every
// entry point verifies the payloads it delivers against the analytic
// expectation internally, so the property under fuzz is simply "no entry
// point ever returns a verification error, panics, or modifies its input"
// across random dimensions, port models, payload seeds, block sizes,
// roots, and compute charges. Dimensions stay <= 5 (32 nodes) so one case runs all
// five collectives in well under a millisecond.
package hypercube_test

import (
	"reflect"
	"testing"

	"hypercube/internal/collective"
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
)

func FuzzReducePayload(f *testing.F) {
	// Seeds: smallest cube, both port models, zero and nonzero compute,
	// single- and multi-element blocks, root at and off zero.
	f.Add(uint8(0), false, int64(0), uint8(0), uint32(0), uint16(0))
	f.Add(uint8(2), false, int64(1), uint8(1), uint32(5), uint16(0))
	f.Add(uint8(3), true, int64(42), uint8(3), uint32(7), uint16(250))
	f.Add(uint8(4), false, int64(-9), uint8(4), uint32(31), uint16(1000))

	f.Fuzz(func(t *testing.T, dimRaw uint8, onePort bool, seed int64, blkRaw uint8, rootRaw uint32, tcRaw uint16) {
		dim := 1 + int(dimRaw%5)
		cube := topology.New(dim, topology.HighToLow)
		pm := core.AllPort
		if onePort {
			pm = core.OnePort
		}
		p := ncube.NCube2(pm)
		tc := event.Time(tcRaw)
		n := cube.Nodes()
		blockElems := 1 + int(blkRaw%5)
		in := collective.RandomData(seed, n, n*blockElems)
		root := topology.NodeID(rootRaw % uint32(n))

		// The standalone entry points copy their input: each call must
		// leave in exactly as the caller built it.
		snap := make([][]float64, n)
		for v := range in {
			snap[v] = append([]float64(nil), in[v]...)
		}
		check := func(name string, f func() (collective.DataResult, error)) {
			t.Helper()
			if _, err := f(); err != nil {
				t.Fatalf("%s(dim=%d root=%d): %v", name, dim, root, err)
			}
			if !reflect.DeepEqual(in, snap) {
				t.Fatalf("%s(dim=%d root=%d) modified its input", name, dim, root)
			}
		}
		check("ReduceData", func() (collective.DataResult, error) { return collective.ReduceData(p, cube, root, in, tc) })
		check("ReduceScatter", func() (collective.DataResult, error) { return collective.ReduceScatter(p, cube, in, tc) })
		check("AllReduceHD", func() (collective.DataResult, error) { return collective.AllReduceHD(p, cube, in, tc) })
		check("AllReduceRing", func() (collective.DataResult, error) { return collective.AllReduceRing(p, cube, in, tc) })
		check("AllToAll", func() (collective.DataResult, error) { return collective.AllToAll(p, cube, in) })
	})
}
