package wormhole

import (
	"strings"
	"testing"

	"hypercube/internal/event"
	"hypercube/internal/faults"
	"hypercube/internal/topology"
)

func faultyNet(n int, plan faults.Plan) (*event.Queue, *Network, *faults.Injector) {
	q, net := newNet(n)
	in := faults.New(plan)
	net.SetFaults(in)
	return q, net, in
}

// A permanent fault on the first channel of the path destroys the message
// in Drop mode and frees everything it held.
func TestFaultyLinkDropsMessage(t *testing.T) {
	arc := topology.Arc{From: 0, Dim: 2} // first hop of 0 -> 4 under HighToLow on a 3-cube
	q, net, _ := faultyNet(3, faults.Plan{Links: []faults.LinkFault{{Arc: arc}}})
	delivered := false
	net.Send(0, 4, size, DeliverFunc(func(Delivery) { delivered = true }))
	q.MustRun(0, 0)
	if delivered {
		t.Fatal("message crossed a dead link")
	}
	if net.Lost() != 1 || net.Delivered() != 0 || net.InFlight() != 0 {
		t.Fatalf("lost=%d delivered=%d inflight=%d", net.Lost(), net.Delivered(), net.InFlight())
	}
	if !net.Idle() {
		t.Fatal("channels leaked by a dropped message")
	}
}

// A transient window only kills messages whose header reaches the channel
// during the window.
func TestTransientLinkWindow(t *testing.T) {
	arc := topology.Arc{From: 0, Dim: 2}
	q, net, _ := faultyNet(3, faults.Plan{Links: []faults.LinkFault{
		{Arc: arc, From: 0, Until: 10 * event.Microsecond},
	}})
	var got []topology.NodeID
	rec := func(d Delivery) { got = append(got, d.To) }
	net.Send(0, 4, size, DeliverFunc(rec)) // at t=0: inside the window, lost
	q.At(20*event.Microsecond, func() { net.Send(0, 4, size, DeliverFunc(rec)) })
	q.MustRun(0, 0)
	if len(got) != 1 {
		t.Fatalf("deliveries = %v, want exactly the post-repair send", got)
	}
	if net.Lost() != 1 {
		t.Fatalf("lost = %d", net.Lost())
	}
}

// Stall mode wedges the message in place; held channels backpressure later
// traffic and the diagnostics name the wedged owner.
func TestStalledLinkWedgesAndDiagnoses(t *testing.T) {
	// Path 0 -> 6 under HighToLow: dims 2 then 1. Fail the second hop so
	// the message stalls while holding the first channel.
	q, net, _ := faultyNet(3, faults.Plan{
		Mode:  faults.Stall,
		Links: []faults.LinkFault{{Arc: topology.Arc{From: 4, Dim: 1}}},
	})
	delivered := 0
	net.Send(0, 6, size, DeliverFunc(func(Delivery) { delivered++ }))
	// A second message needing the held first channel queues forever.
	net.Send(0, 4, size, DeliverFunc(func(Delivery) { delivered++ }))
	q.MustRun(0, 0)
	if delivered != 0 {
		t.Fatalf("delivered %d messages through a wedged network", delivered)
	}
	if net.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", net.InFlight())
	}
	held := net.Held()
	if len(held) != 1 {
		t.Fatalf("held = %v, want the first-hop channel", held)
	}
	h := held[0]
	if h.Arc != (topology.Arc{From: 0, Dim: 2}) || !h.Wedged || h.Waiters != 1 {
		t.Fatalf("held channel %+v", h)
	}
	diag := net.Diagnose()
	for _, want := range []string{"2 in flight", "wedged on failed link", "1 queued"} {
		if !strings.Contains(diag, want) {
			t.Fatalf("Diagnose() = %q missing %q", diag, want)
		}
	}
}

// A dead source injects nothing; a dead destination consumes nothing.
func TestDeadEndpoints(t *testing.T) {
	q, net, _ := faultyNet(3, faults.Plan{Nodes: []faults.NodeFault{{Node: 5, At: 0}}})
	delivered := 0
	rec := func(Delivery) { delivered++ }
	net.Send(5, 0, size, DeliverFunc(rec)) // dead source
	net.Send(0, 5, size, DeliverFunc(rec)) // dead destination
	net.Send(0, 3, size, DeliverFunc(rec)) // unaffected pair
	q.MustRun(0, 0)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want only 0->3", delivered)
	}
	if net.Lost() != 2 {
		t.Fatalf("lost = %d", net.Lost())
	}
	if !net.Idle() {
		t.Fatal("channels leaked")
	}
}

// A node that crashes mid-run stops consuming from its crash time onward.
func TestNodeCrashMidRun(t *testing.T) {
	crash := 1 * event.Millisecond // past the ~514us first arrival
	q, net, _ := faultyNet(3, faults.Plan{Nodes: []faults.NodeFault{{Node: 1, At: crash}}})
	delivered := 0
	net.Send(0, 1, size, DeliverFunc(func(Delivery) { delivered++ })) // arrives before crash
	q.At(crash, func() {
		net.Send(0, 1, size, DeliverFunc(func(Delivery) { delivered++ })) // after: lost
	})
	q.MustRun(0, 0)
	if delivered != 1 || net.Lost() != 1 {
		t.Fatalf("delivered=%d lost=%d", delivered, net.Lost())
	}
}

// DropRate loses messages silently; TruncateRate delivers marked prefixes.
func TestMessageFateDropAndTruncate(t *testing.T) {
	q, net, in := faultyNet(4, faults.Plan{Seed: 11, DropRate: 0.25, TruncateRate: 0.25})
	full, truncated := 0, 0
	for i := 0; i < 200; i++ {
		to := topology.NodeID(1 + i%15)
		net.Send(0, to, size, DeliverFunc(func(d Delivery) {
			if d.Truncated {
				truncated++
				if d.Bytes >= size {
					t.Errorf("truncated delivery carries %d bytes", d.Bytes)
				}
			} else {
				full++
				if d.Bytes != size {
					t.Errorf("full delivery carries %d bytes", d.Bytes)
				}
			}
		}))
	}
	q.MustRun(0, 0)
	if in.Drops() == 0 || truncated == 0 || full == 0 {
		t.Fatalf("drops=%d truncated=%d full=%d", in.Drops(), truncated, full)
	}
	if net.Delivered() != full+truncated || net.Lost() != in.Drops() {
		t.Fatalf("delivered=%d lost=%d", net.Delivered(), net.Lost())
	}
	if net.InFlight() != 0 || !net.Idle() {
		t.Fatal("network not quiescent")
	}
}
