package wormhole

// Virtual-channel behavior of the message-level model: spare lanes turn
// same-arc serialization into parallelism, each allocation policy leaves
// its signature in the per-lane stats, and faults compose at the right
// granularity — a dead arc kills every lane, a stalled header wedges only
// the lane it holds.

import (
	"strings"
	"testing"

	"hypercube/internal/event"
	"hypercube/internal/faults"
	"hypercube/internal/topology"
	"hypercube/internal/vc"
)

func newLaneNet(n, lanes int, policy vc.Kind) (*event.Queue, *Network) {
	q := &event.Queue{}
	net := New(q, topology.New(n, topology.HighToLow), Config{
		THop: hop, TByte: byt, Lanes: lanes, Policy: policy,
	})
	return q, net
}

// Two messages over the same arc serialize at one lane; a second lane
// lets both proceed at the uncontended latency with zero blocked time.
func TestLanesRelieveSharedChannelContention(t *testing.T) {
	run := func(lanes int) []Delivery {
		var q *event.Queue
		var net *Network
		if lanes <= 1 {
			q, net = newNet(3)
		} else {
			q, net = newLaneNet(3, lanes, vc.RoundRobin)
		}
		var got []Delivery
		net.Send(0, 1, size, DeliverFunc(func(d Delivery) { got = append(got, d) }))
		net.Send(0, 1, size, DeliverFunc(func(d Delivery) { got = append(got, d) }))
		q.MustRun(0, 0)
		if len(got) != 2 {
			t.Fatalf("%d lanes: %d deliveries", lanes, len(got))
		}
		return got
	}
	uncontended := 1*hop + event.Time(size)*byt

	one := run(1)
	if one[0].Blocked != 0 || one[1].Blocked == 0 {
		t.Fatalf("1 lane: blocked = %v/%v, want the second send to wait", one[0].Blocked, one[1].Blocked)
	}
	two := run(2)
	for i, d := range two {
		if d.Blocked != 0 || d.Latency() != uncontended {
			t.Fatalf("2 lanes: delivery %d blocked %v latency %v, want 0 / %v",
				i, d.Blocked, d.Latency(), uncontended)
		}
	}
}

// sendSpaced injects count messages over the arc 0 -> 1, each after the
// previous one fully drained, so every claim sees all lanes free and the
// policy's cursor alone decides the lane.
func sendSpaced(q *event.Queue, net *Network, count int) {
	gap := 2 * (1*hop + event.Time(size)*byt)
	for i := 0; i < count; i++ {
		at := event.Time(i) * gap
		q.At(at, func() { net.Send(0, 1, size, DeliverFunc(func(Delivery) {})) })
	}
}

func laneAcquires(t *testing.T, net *Network, lanes int) []int64 {
	t.Helper()
	ls := net.LaneStats()
	if len(ls) != lanes {
		t.Fatalf("LaneStats sized %d, want %d", len(ls), lanes)
	}
	out := make([]int64, lanes)
	for l, s := range ls {
		out[l] = s.Acquires
	}
	return out
}

// Round-robin cycles uncontended claims across every lane in order.
func TestRoundRobinPolicyCycles(t *testing.T) {
	q, net := newLaneNet(3, 2, vc.RoundRobin)
	sendSpaced(q, net, 4)
	q.MustRun(0, 0)
	acq := laneAcquires(t, net, 2)
	if acq[0] != 2 || acq[1] != 2 {
		t.Fatalf("round-robin acquires = %v, want [2 2]", acq)
	}
}

// Lowest-occupancy balances cumulative use, breaking ties toward lane 0.
func TestLowestOccupancyPolicyBalances(t *testing.T) {
	q, net := newLaneNet(3, 3, vc.LowestOccupancy)
	sendSpaced(q, net, 5)
	q.MustRun(0, 0)
	acq := laneAcquires(t, net, 3)
	if acq[0] != 2 || acq[1] != 2 || acq[2] != 1 {
		t.Fatalf("lowest-occupancy acquires = %v, want [2 2 1]", acq)
	}
}

// The escape policy keeps lane 0 in reserve: uncontended traffic lives
// entirely on the adaptive lanes, and only a concurrent claim that finds
// them busy falls back to the escape lane.
func TestEscapePolicyReservesLaneZero(t *testing.T) {
	q, net := newLaneNet(3, 2, vc.Escape)
	sendSpaced(q, net, 3)
	q.MustRun(0, 0)
	acq := laneAcquires(t, net, 2)
	if acq[0] != 0 || acq[1] != 3 {
		t.Fatalf("spaced escape acquires = %v, want [0 3]", acq)
	}

	q2, net2 := newLaneNet(3, 2, vc.Escape)
	net2.Send(0, 1, size, DeliverFunc(func(Delivery) {}))
	net2.Send(0, 1, size, DeliverFunc(func(Delivery) {}))
	q2.MustRun(0, 0)
	acq = laneAcquires(t, net2, 2)
	if acq[0] != 1 || acq[1] != 1 {
		t.Fatalf("concurrent escape acquires = %v, want [1 1]", acq)
	}
}

// A dead arc is dead at every lane count: the fault check precedes lane
// allocation, so spare lanes never route around a failed physical link.
func TestDeadArcKillsAllLanes(t *testing.T) {
	arc := topology.Arc{From: 0, Dim: 2} // first hop of 0 -> 4 on a 3-cube
	q := &event.Queue{}
	net := New(q, topology.New(3, topology.HighToLow), Config{
		THop: hop, TByte: byt, Lanes: 4, Policy: vc.RoundRobin,
	})
	net.SetFaults(faults.New(faults.Plan{Links: []faults.LinkFault{{Arc: arc}}}))
	delivered := 0
	net.Send(0, 4, size, DeliverFunc(func(Delivery) { delivered++ }))
	net.Send(0, 4, size, DeliverFunc(func(Delivery) { delivered++ }))
	q.MustRun(0, 0)
	if delivered != 0 || net.Lost() != 2 {
		t.Fatalf("delivered=%d lost=%d across a dead arc, want 0/2", delivered, net.Lost())
	}
	if !net.Idle() {
		t.Fatal("channels leaked by messages dropped at a dead arc")
	}
	for l, s := range net.LaneStats() {
		if s.Acquires != 0 {
			t.Fatalf("lane %d acquired %d times on a dead arc", l, s.Acquires)
		}
	}
}

// A header wedged by a stall fault holds exactly one lane: with a spare
// lane on the shared first-hop arc, traffic that the single-lane model
// queues forever now flows past the wedge.
func TestStallWedgesOnlyItsLane(t *testing.T) {
	// Path 0 -> 6 under HighToLow crosses dims 2 then 1. Failing the
	// second hop wedges that message on a lane of arc {0, dim 2}; the
	// 0 -> 4 message needs only that same arc.
	q := &event.Queue{}
	net := New(q, topology.New(3, topology.HighToLow), Config{
		THop: hop, TByte: byt, Lanes: 2, Policy: vc.RoundRobin,
	})
	net.SetFaults(faults.New(faults.Plan{
		Mode:  faults.Stall,
		Links: []faults.LinkFault{{Arc: topology.Arc{From: 4, Dim: 1}}},
	}))
	delivered := 0
	net.Send(0, 6, size, DeliverFunc(func(Delivery) { t.Fatal("delivered through a stalled link") }))
	net.Send(0, 4, size, DeliverFunc(func(Delivery) { delivered++ }))
	q.MustRun(0, 0)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want the spare-lane message through", delivered)
	}
	if net.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want only the wedged message", net.InFlight())
	}
	held := net.Held()
	if len(held) != 1 || !held[0].Wedged {
		t.Fatalf("held = %+v, want exactly the wedged first-hop lane", held)
	}
	if diag := net.Diagnose(); !strings.Contains(diag, "lane") {
		t.Fatalf("Diagnose() = %q does not name the wedged lane", diag)
	}
}
