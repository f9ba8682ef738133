package ncube

import (
	"math/rand"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/topology"
)

// Without jitter, the distributed protocol execution matches the
// tree-driven execution exactly, for every algorithm and port model.
func TestRunDistributedMatchesRun(t *testing.T) {
	c := topology.New(5, topology.HighToLow)
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 25; trial++ {
		src := topology.NodeID(rng.Intn(32))
		dests := randomDests(rng, 5, src, 1+rng.Intn(31))
		for _, a := range core.Algorithms() {
			for _, pm := range []core.PortModel{core.OnePort, core.AllPort} {
				p := NCube2(pm)
				want := Run(p, core.Build(c, a, src, dests), 2048)
				got := RunDistributed(JitterParams{Params: p}, c, a, src, dests, 2048)
				if want.Makespan != got.Makespan {
					t.Fatalf("%v/%v: makespan %v vs %v", a, pm, got.Makespan, want.Makespan)
				}
				if len(want.Recv) != len(got.Recv) {
					t.Fatalf("%v/%v: receipt counts differ", a, pm)
				}
				for v, tw := range want.Recv {
					if got.Recv[v] != tw {
						t.Fatalf("%v/%v: node %v receipt %v vs %v", a, pm, v, got.Recv[v], tw)
					}
				}
			}
		}
	}
}

// The paper's robustness claim: W-sort and Maxport stay physically
// contention-free even when software timings are randomized — their
// guarantee is structural (arc-disjoint paths), not a lucky synchrony.
func TestContentionFreedomUnderJitter(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	rng := rand.New(rand.NewSource(157))
	for trial := 0; trial < 40; trial++ {
		src := topology.NodeID(rng.Intn(64))
		dests := randomDests(rng, 6, src, 1+rng.Intn(63))
		for _, a := range []core.Algorithm{core.Maxport, core.WSort} {
			jp := JitterParams{Params: NCube2(core.AllPort), Amount: 0.5, Seed: int64(trial)}
			r := RunDistributed(jp, c, a, src, dests, 4096)
			if r.TotalBlocked != 0 {
				t.Fatalf("%v blocked %v under jitter: src=%v dests=%v", a, r.TotalBlocked, src, dests)
			}
			for _, d := range dests {
				if _, ok := r.DelayOf(d); !ok {
					t.Fatalf("%v: destination %v lost under jitter", a, d)
				}
			}
		}
	}
}

// U-cube on all-port, by contrast, does block under jitter on sets that
// share source channels — the serialization the paper's Figure 3(d)
// describes happens physically.
func TestUCubeBlocksUnderJitterSomewhere(t *testing.T) {
	c := topology.New(5, topology.HighToLow)
	rng := rand.New(rand.NewSource(163))
	blocked := false
	for trial := 0; trial < 40 && !blocked; trial++ {
		src := topology.NodeID(rng.Intn(32))
		dests := randomDests(rng, 5, src, 8+rng.Intn(20))
		jp := JitterParams{Params: NCube2(core.AllPort), Amount: 0.3, Seed: int64(trial)}
		r := RunDistributed(jp, c, core.UCube, src, dests, 4096)
		blocked = r.TotalBlocked > 0
	}
	if !blocked {
		t.Error("U-cube never blocked on all-port workloads — serialization model broken?")
	}
}

// Jitter is reproducible for a fixed seed and changes with the seed.
func TestJitterDeterminism(t *testing.T) {
	c := topology.New(5, topology.HighToLow)
	dests := randomDests(rand.New(rand.NewSource(1)), 5, 0, 12)
	jp := JitterParams{Params: NCube2(core.AllPort), Amount: 0.4, Seed: 9}
	a := RunDistributed(jp, c, core.WSort, 0, dests, 4096)
	b := RunDistributed(jp, c, core.WSort, 0, dests, 4096)
	if a.Makespan != b.Makespan {
		t.Error("same seed, different makespans")
	}
	jp.Seed = 10
	cRes := RunDistributed(jp, c, core.WSort, 0, dests, 4096)
	if cRes.Makespan == a.Makespan {
		t.Error("different seed produced identical makespan (suspicious)")
	}
}

func TestJitterValidate(t *testing.T) {
	for _, tc := range []struct {
		amount float64
		ok     bool
	}{
		{0, true}, {0.3, true}, {0.999, true},
		{-0.1, false}, {1.0, false}, {2.5, false},
	} {
		jp := JitterParams{Params: NCube2(core.AllPort), Amount: tc.amount}
		if err := jp.Err(); (err == nil) != tc.ok {
			t.Errorf("amount %v: Err() = %v, want ok=%v", tc.amount, err, tc.ok)
		}
	}
	bad := JitterParams{Params: NCube2(core.AllPort)}
	bad.TRecv = -1
	if bad.Err() == nil {
		t.Error("jitter params accepted a malformed machine")
	}
}
