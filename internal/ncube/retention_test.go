package ncube_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"hypercube/internal/collective"
	"hypercube/internal/core"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/traffic"
)

// TestSessionRetention bounds what a pooled session keeps once a run has
// released it. After one run of each benchmark traffic family's shape it
// logs the session's retained calendar, slab and payload-block capacity
// and bounds their sum; one session serves the families in turn, as a
// pooled session does, so each figure includes the families before it.
// And a borrow above MaxPayloadBlock never becomes the block a session
// keeps.
func TestSessionRetention(t *testing.T) {
	if ncube.RaceEnabled() {
		t.Skip("sync.Pool drops sessions at random under -race")
	}
	// One P and no collection: the session a run releases is the one the
	// next NewSession borrows.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	borrow := func() *ncube.Session {
		return ncube.NewSession(ncube.NCube2(core.AllPort), topology.New(1, topology.HighToLow), ncube.Instrumentation{})
	}
	const storm = `{"dim":6,"seed":7%s,"arrivals":{"kind":"poisson","count":32,"rate_per_ms":4,` +
		`"op":{"kind":"multicast","algorithm":"w-sort","dest_count":32,"bytes":4096}}}`
	for _, fam := range []struct {
		name, spec string
		maxKiB     int
	}{
		{"storm", fmt.Sprintf(storm, ""), 128},
		{"storm_lanes4", fmt.Sprintf(storm, `,"lanes":4,"vc_policy":"round-robin"`), 128},
		{"oneport", fmt.Sprintf(storm, `,"port":"one-port"`), 128},
		{"data", `{"dim":5,"seed":7,"ops":[{"kind":"allreduce","algorithm":"hd","bytes":1024,"seed":1},` +
			`{"kind":"reduce-scatter","bytes":1024,"seed":2},{"kind":"alltoall","bytes":1024,"seed":3}]}`, 1280},
		{"chaos", `{"dim":5,"seed":7,"arrivals":{"kind":"poisson","count":32,"rate_per_ms":2,` +
			`"op":{"kind":"fault-tolerant-multicast","dest_count":12,"bytes":1024}},` +
			`"faults":[{"kind":"link","mode":"drop","count":4,"seed":9}]}`, 1280},
	} {
		spec, err := traffic.Parse([]byte(fam.spec))
		if err != nil {
			t.Fatalf("%s: %v", fam.name, err)
		}
		if _, err := traffic.Run(spec); err != nil {
			t.Fatalf("%s: %v", fam.name, err)
		}
		s := borrow()
		cal, slabs, block := ncube.Retained(s)
		s.Release()
		t.Logf("%s: calendar %.1f KiB, slabs %.1f KiB, payload block %.1f KiB",
			fam.name, float64(cal)/1024, float64(slabs)/1024, float64(block)/1024)
		if cal == 0 {
			t.Fatalf("%s: the session borrowed after the run is not the one it released", fam.name)
		}
		if total := cal + slabs + block; total > fam.maxKiB<<10 {
			t.Errorf("%s: session retains %.1f KiB, want <= %d KiB", fam.name, float64(total)/1024, fam.maxKiB)
		}
	}

	s := borrow()
	s.ReturnPayload(s.Payload(ncube.MaxPayloadBlock + 1))
	s.Release()
	// A ring allreduce on an 8-cube carves 130,560 steps, above the cap.
	c := topology.New(8, topology.HighToLow)
	if _, err := collective.AllReduceRing(ncube.NCube2(core.AllPort), c, collective.RandomData(1, c.Nodes(), c.Nodes()), 0); err != nil {
		t.Fatal(err)
	}
	s = borrow()
	defer s.Release()
	if _, _, block := ncube.Retained(s); block > ncube.MaxPayloadBlock*8 {
		t.Errorf("session keeps a %d-byte payload block, above the %d-element cap", block, ncube.MaxPayloadBlock)
	}
	if n := ncube.KeptSteps(s); n > ncube.MaxKeptSteps {
		t.Errorf("session keeps a %d-step slab, above the %d-step cap", n, ncube.MaxKeptSteps)
	}
}
