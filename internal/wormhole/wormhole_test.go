package wormhole

import (
	"testing"

	"hypercube/internal/event"
	"hypercube/internal/topology"
)

const (
	hop  = 2 * event.Microsecond
	byt  = 500 * event.Nanosecond
	size = 1024
)

func newNet(n int) (*event.Queue, *Network) {
	q := &event.Queue{}
	net := New(q, topology.New(n, topology.HighToLow), Config{THop: hop, TByte: byt})
	return q, net
}

// Distance insensitivity: latency = hops*THop + bytes*TByte, so doubling
// the distance adds only hops*THop, tiny next to the drain time.
func TestUncontendedLatency(t *testing.T) {
	q, net := newNet(4)
	var got []Delivery
	net.Send(0b0000, 0b0001, size, DeliverFunc(func(d Delivery) { got = append(got, d) }))
	q.MustRun(0, 0)
	if len(got) != 1 {
		t.Fatalf("deliveries = %d", len(got))
	}
	want := 1*hop + event.Time(size)*byt
	if got[0].Latency() != want {
		t.Errorf("latency = %v, want %v", got[0].Latency(), want)
	}
	if got[0].Blocked != 0 || got[0].Hops != 1 {
		t.Errorf("blocked=%v hops=%d", got[0].Blocked, got[0].Hops)
	}

	q2, net2 := newNet(4)
	var far Delivery
	net2.Send(0b0000, 0b1111, size, DeliverFunc(func(d Delivery) { far = d }))
	q2.MustRun(0, 0)
	wantFar := 4*hop + event.Time(size)*byt
	if far.Latency() != wantFar {
		t.Errorf("4-hop latency = %v, want %v", far.Latency(), wantFar)
	}
}

// Two messages over disjoint channels proceed fully in parallel.
func TestParallelDisjoint(t *testing.T) {
	q, net := newNet(4)
	var a, b Delivery
	net.Send(0b0000, 0b0001, size, DeliverFunc(func(d Delivery) { a = d }))
	net.Send(0b0010, 0b0011, size, DeliverFunc(func(d Delivery) { b = d }))
	end := q.MustRun(0, 0)
	want := 1*hop + event.Time(size)*byt
	if a.Latency() != want || b.Latency() != want {
		t.Errorf("latencies %v %v, want %v", a.Latency(), b.Latency(), want)
	}
	if end != want {
		t.Errorf("makespan = %v, want %v (full overlap)", end, want)
	}
	if net.TotalBlocked() != 0 {
		t.Error("unexpected blocking")
	}
}

// Two messages needing the same channel serialize: the second's header
// blocks until the first's tail releases the channel.
func TestSerializationOnSharedChannel(t *testing.T) {
	q, net := newNet(4)
	var first, second Delivery
	// Both leave node 0 on channel 3 (HighToLow: highest differing bit).
	net.Send(0b0000, 0b1000, size, DeliverFunc(func(d Delivery) { first = d }))
	net.Send(0b0000, 0b1001, size, DeliverFunc(func(d Delivery) { second = d }))
	q.MustRun(0, 0)
	drain := event.Time(size) * byt
	if first.Arrived != hop+drain {
		t.Errorf("first arrived %v", first.Arrived)
	}
	// Second waits for the channel release at hop+drain, then 2 hops+drain.
	wantSecond := (hop + drain) + 2*hop + drain
	if second.Arrived != wantSecond {
		t.Errorf("second arrived %v, want %v", second.Arrived, wantSecond)
	}
	if second.Blocked != hop+drain {
		t.Errorf("second blocked %v, want %v", second.Blocked, hop+drain)
	}
	if net.TotalBlocked() != second.Blocked {
		t.Error("TotalBlocked mismatch")
	}
}

// A blocked header holds the channels it already acquired (the signature
// wormhole pathology): a third message needing one of those channels waits
// transitively.
func TestBlockedHeaderHoldsChannels(t *testing.T) {
	q, net := newNet(4)
	// M1: 1100 -> 1000 occupies channel (1100,d2) long.
	// M2: 0100 -> 1000: path 0100 ->d3 1100 ->d2 1000. Acquires (0100,d3),
	// then blocks on (1100,d2) held by M1, while holding (0100,d3).
	// M3: 0100 -> 1100 needs (0100,d3): blocked by M2 although M2 hasn't
	// moved.
	var m1, m2, m3 Delivery
	net.Send(0b1100, 0b1000, size, DeliverFunc(func(d Delivery) { m1 = d }))
	net.Send(0b0100, 0b1000, size, DeliverFunc(func(d Delivery) { m2 = d }))
	net.Send(0b0100, 0b1100, size, DeliverFunc(func(d Delivery) { m3 = d }))
	q.MustRun(0, 0)
	drain := event.Time(size) * byt
	if m1.Blocked != 0 {
		t.Errorf("m1 blocked %v", m1.Blocked)
	}
	if m2.Blocked == 0 {
		t.Error("m2 should block on m1's channel")
	}
	if m3.Blocked == 0 {
		t.Error("m3 should block transitively behind m2")
	}
	// m3 cannot start crossing before m2 released (m2 holds (0100,d3)
	// until its own tail arrives).
	if m3.Arrived < m2.Arrived {
		t.Errorf("m3 arrived %v before m2 %v", m3.Arrived, m2.Arrived)
	}
	// m2 crossed its first channel while blocked; after the grant it has
	// one hop plus the drain remaining.
	if m2.Arrived != m1.Arrived+hop+drain {
		t.Errorf("m2 arrived %v, want %v", m2.Arrived, m1.Arrived+hop+drain)
	}
}

// Opposite directions of a link are independent channels.
func TestOppositeDirectionsIndependent(t *testing.T) {
	q, net := newNet(3)
	var a, b Delivery
	net.Send(0, 1, size, DeliverFunc(func(d Delivery) { a = d }))
	net.Send(1, 0, size, DeliverFunc(func(d Delivery) { b = d }))
	q.MustRun(0, 0)
	if a.Blocked != 0 || b.Blocked != 0 {
		t.Error("opposite directions should not contend")
	}
}

// FIFO channel arbitration: waiters acquire in arrival order.
func TestChannelFIFO(t *testing.T) {
	q, net := newNet(4)
	var order []topology.NodeID
	// Three messages, all needing (0000, d0) as their only channel.
	record := func(d Delivery) { order = append(order, d.To) }
	net.Send(0, 1, size, DeliverFunc(record))
	net.Send(0, 1, size, DeliverFunc(record))
	net.Send(0, 1, size, DeliverFunc(record))
	q.MustRun(0, 0)
	if len(order) != 3 {
		t.Fatalf("deliveries = %d", len(order))
	}
	if net.Delivered() != 3 {
		t.Error("Delivered count wrong")
	}
}

// Self-send completes after the drain time without using channels.
func TestSelfSend(t *testing.T) {
	q, net := newNet(3)
	var d Delivery
	net.Send(5, 5, size, DeliverFunc(func(x Delivery) { d = x }))
	q.MustRun(0, 0)
	if d.Hops != 0 || d.Latency() != event.Time(size)*byt {
		t.Errorf("self send: %+v", d)
	}
	if !net.Idle() {
		t.Error("network not idle after self send")
	}
}

// Zero-byte message: header-only latency.
func TestZeroByteMessage(t *testing.T) {
	q, net := newNet(3)
	var d Delivery
	net.Send(0, 7, 0, DeliverFunc(func(x Delivery) { d = x }))
	q.MustRun(0, 0)
	if d.Latency() != 3*hop {
		t.Errorf("latency = %v, want %v", d.Latency(), 3*hop)
	}
}

// The network returns to idle after arbitrary traffic (no leaked channel
// ownership), and deliveries are conserved.
func TestIdleAfterTraffic(t *testing.T) {
	q, net := newNet(5)
	sent := 0
	for s := 0; s < 32; s += 3 {
		for d := 0; d < 32; d += 5 {
			net.Send(topology.NodeID(s), topology.NodeID(d%32), 64, nil)
			sent++
		}
	}
	q.MustRun(0, 0)
	if !net.Idle() {
		t.Error("network left non-idle")
	}
	if net.Delivered() != sent {
		t.Errorf("delivered %d of %d", net.Delivered(), sent)
	}
}

// Deferred injection through the event queue: a send scheduled later must
// observe the network state at that time, not at scheduling time.
func TestDeferredInjection(t *testing.T) {
	q, net := newNet(4)
	var late Delivery
	net.Send(0b0000, 0b1000, size, nil) // holds (0,d3) until 2*hop-ish+drain
	q.After(hop+event.Time(size)*byt, func() {
		// Channel frees exactly now; the late message should not block.
		net.Send(0b0000, 0b1000, size, DeliverFunc(func(d Delivery) { late = d }))
	})
	q.MustRun(0, 0)
	if late.Blocked != 0 {
		t.Errorf("late send blocked %v", late.Blocked)
	}
}

func TestValidateConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative config did not panic")
		}
	}()
	New(&event.Queue{}, topology.New(3, topology.HighToLow), Config{THop: -1})
}

func TestSendValidation(t *testing.T) {
	q, net := newNet(3)
	_ = q
	for _, fn := range []func(){
		func() { net.Send(9, 0, 10, nil) },
		func() { net.Send(0, 9, 10, nil) },
		func() { net.Send(0, 1, -1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid send did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestMaxQueueLen(t *testing.T) {
	q, net := newNet(4)
	if net.MaxQueueLen() != 0 {
		t.Error("fresh network has queue depth")
	}
	net.Send(0, 8, size, nil)
	net.Send(0, 9, size, nil)
	net.Send(0, 10, size, nil)
	q.MustRun(0, 0)
	// Two headers were parked behind the first on channel (0, d3).
	if got := net.MaxQueueLen(); got != 2 {
		t.Errorf("MaxQueueLen = %d, want 2", got)
	}
}

func TestStringer(t *testing.T) {
	_, net := newNet(3)
	if net.String() == "" {
		t.Error("empty String")
	}
}
