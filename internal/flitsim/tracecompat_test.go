package flitsim

// The flit-level model feeds the same trace machinery as the wormhole
// model: trace.CycleRecorder satisfies this package's Tracer, and on
// contention-free schedules the two models produce traces of identical
// shape — same channels touched, one occupancy interval per channel, zero
// blocking incidents. (Durations differ by design: the message-level model
// releases a path only when the tail reaches the destination.)

import (
	"fmt"
	"math/rand"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/topology"
	"hypercube/internal/trace"
	"hypercube/internal/vc"
	"hypercube/internal/wormhole"
)

var _ Tracer = (*trace.CycleRecorder)(nil)

// arcIntervals counts occupancy intervals per channel.
func arcIntervals(rec *trace.Recorder) map[topology.Arc]int {
	out := map[topology.Arc]int{}
	for _, iv := range rec.Intervals {
		out[iv.Arc]++
	}
	return out
}

// Theorem 6 trees (all unicasts pairwise arc-disjoint) injected at time
// zero trace identically in shape on both models.
func TestTraceShapeEquivalentContentionFree(t *testing.T) {
	cube := topology.New(6, topology.HighToLow)
	eachTrial(t, 4300, 25, func(t *testing.T, rng *rand.Rand) {
		src := topology.NodeID(rng.Intn(64))
		m := 1 + rng.Intn(63)
		perm := rng.Perm(64)
		var dests []topology.NodeID
		for _, p := range perm {
			if topology.NodeID(p) != src && len(dests) < m {
				dests = append(dests, topology.NodeID(p))
			}
		}
		for _, a := range []core.Algorithm{core.Maxport, core.WSort} {
			tr := core.Build(cube, a, src, dests)
			sends := tr.Unicasts()

			q := &event.Queue{}
			wnet := wormhole.New(q, cube, wormhole.Config{THop: cyc, TByte: cyc})
			var wrec trace.Recorder
			wnet.SetTracer(&wrec)
			for _, s := range sends {
				wnet.Send(s.From, s.To, 64, wormhole.DeliverFunc(func(wormhole.Delivery) {}))
			}
			q.MustRun(0, 0)
			wrec.Finish(q.Now())

			fnet := New(cube, Config{BufFlits: 2})
			frec := &trace.CycleRecorder{}
			fnet.SetTracer(frec)
			for _, s := range sends {
				fnet.Send(s.From, s.To, 64, 0)
			}
			fnet.Run()

			if wrec.OpenIntervals() != 0 || frec.Rec.OpenIntervals() != 0 {
				t.Fatalf("%v: open intervals after run (wormhole %d, flit %d)",
					a, wrec.OpenIntervals(), frec.Rec.OpenIntervals())
			}
			if len(wrec.Blocks) != 0 || len(frec.Rec.Blocks) != 0 {
				t.Fatalf("%v: blocking on a Theorem 6 tree (wormhole %d, flit %d)",
					a, len(wrec.Blocks), len(frec.Rec.Blocks))
			}
			wa, fa := arcIntervals(&wrec), arcIntervals(&frec.Rec)
			if len(wa) != len(fa) || wrec.ChannelsUsed() != frec.Rec.ChannelsUsed() {
				t.Fatalf("%v: channel sets differ (wormhole %d, flit %d)",
					a, len(wa), len(fa))
			}
			for arc, n := range wa {
				if fa[arc] != n {
					t.Fatalf("%v: arc %v has %d wormhole intervals, %d flit intervals",
						a, arc, n, fa[arc])
				}
				if n != 1 {
					t.Fatalf("%v: arc %v occupied %d times on an arc-disjoint tree", a, arc, n)
				}
			}
		}
	})
}

// A flit-level run aborted by the cycle budget still closes its trace:
// intervals held at the abort flush at the final cycle instead of leaking.
func TestTraceFlushedOnBudgetAbort(t *testing.T) {
	cube := topology.New(4, topology.HighToLow)
	fnet := New(cube, Config{BufFlits: 2})
	rec := &trace.CycleRecorder{}
	fnet.SetTracer(rec)
	fnet.Send(0, 15, 4096, 0)
	if _, err := fnet.RunBudget(50); err == nil {
		t.Fatal("expected a budget error")
	}
	if rec.Rec.OpenIntervals() != 0 {
		t.Fatalf("%d intervals left open after budget abort", rec.Rec.OpenIntervals())
	}
	if len(rec.Rec.Intervals) == 0 {
		t.Fatal("no intervals recorded before the abort")
	}
	for _, iv := range rec.Rec.Intervals {
		if iv.End > 50 {
			t.Fatalf("interval closed past the budget: %+v", iv)
		}
	}
}

// On contention-free schedules the shape equivalence survives every lane
// count: arc-disjoint unicasts claim each arc exactly once, so both
// models pick lane 0 (the round-robin cursor never advances past a
// first grant per arc), touch identical channel sets, and record zero
// blocking — the lanes are pure spare capacity that a Theorem 6 schedule
// never needs.
func TestTraceShapeEquivalentMultiLane(t *testing.T) {
	cube := topology.New(6, topology.HighToLow)
	for _, lanes := range []int{2, 4} {
		lanes := lanes
		t.Run(fmt.Sprintf("%dlanes", lanes), func(t *testing.T) {
			eachTrial(t, 7700+int64(lanes), 10, func(t *testing.T, rng *rand.Rand) {
				src := topology.NodeID(rng.Intn(64))
				m := 1 + rng.Intn(63)
				perm := rng.Perm(64)
				var dests []topology.NodeID
				for _, p := range perm {
					if topology.NodeID(p) != src && len(dests) < m {
						dests = append(dests, topology.NodeID(p))
					}
				}
				tr := core.Build(cube, core.WSort, src, dests)
				sends := tr.Unicasts()

				q := &event.Queue{}
				wnet := wormhole.New(q, cube, wormhole.Config{
					THop: cyc, TByte: cyc, Lanes: lanes, Policy: vc.RoundRobin,
				})
				var wrec trace.Recorder
				wnet.SetTracer(&wrec)
				for _, s := range sends {
					wnet.Send(s.From, s.To, 64, wormhole.DeliverFunc(func(wormhole.Delivery) {}))
				}
				q.MustRun(0, 0)
				wrec.Finish(q.Now())

				fnet := New(cube, Config{BufFlits: 2, Lanes: lanes, Policy: vc.RoundRobin})
				frec := &trace.CycleRecorder{}
				fnet.SetTracer(frec)
				for _, s := range sends {
					fnet.Send(s.From, s.To, 64, 0)
				}
				fnet.Run()

				if len(wrec.Blocks) != 0 || len(frec.Rec.Blocks) != 0 {
					t.Fatalf("blocking on a Theorem 6 tree at %d lanes (wormhole %d, flit %d)",
						lanes, len(wrec.Blocks), len(frec.Rec.Blocks))
				}
				wa, fa := arcIntervals(&wrec), arcIntervals(&frec.Rec)
				if len(wa) != len(fa) {
					t.Fatalf("channel sets differ at %d lanes (wormhole %d, flit %d)",
						lanes, len(wa), len(fa))
				}
				for arc, n := range wa {
					if fa[arc] != n || n != 1 {
						t.Fatalf("arc %v: %d wormhole intervals, %d flit intervals (want 1 each)",
							arc, n, fa[arc])
					}
				}
				// Lane-usage profiles agree across models: every grant on
				// lane 0, spare lanes untouched.
				ws, fg := wnet.LaneStats(), fnet.LaneGrants()
				if len(ws) != lanes || len(fg) != lanes {
					t.Fatalf("lane stats sized %d/%d, want %d", len(ws), len(fg), lanes)
				}
				if ws[0].Acquires != int64(len(wa)) || fg[0] != int64(len(fa)) {
					t.Fatalf("lane 0 carried %d/%d grants, want %d",
						ws[0].Acquires, fg[0], len(wa))
				}
				for l := 1; l < lanes; l++ {
					if ws[l].Acquires != 0 || fg[l] != 0 {
						t.Fatalf("spare lane %d used on a contention-free schedule (%d/%d)",
							l, ws[l].Acquires, fg[l])
					}
				}
			})
		})
	}
}
