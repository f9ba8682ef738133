package collective

import (
	"fmt"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
)

// complete reports a result in which some node never finished.
func (r Result) complete(nodes int) error {
	if len(r.Finish) != nodes {
		return fmt.Errorf("collective: %d of %d nodes finished", len(r.Finish), nodes)
	}
	return nil
}

func params(pm core.PortModel) ncube.Params { return ncube.NCube2(pm) }

func cube(n int) topology.Cube { return topology.New(n, topology.HighToLow) }

func TestScatterBasics(t *testing.T) {
	for n := 1; n <= 7; n++ {
		c := cube(n)
		r := Scatter(params(core.AllPort), c, 0, 1024)
		if err := r.complete(c.Nodes()); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r.Messages != c.Nodes()-1 {
			t.Errorf("n=%d: messages = %d, want %d", n, r.Messages, c.Nodes()-1)
		}
		if r.TotalBlocked != 0 {
			t.Errorf("n=%d: scatter blocked %v", n, r.TotalBlocked)
		}
		if r.Finish[0] != 0 {
			t.Errorf("root finish = %v", r.Finish[0])
		}
	}
}

// Scatter from a non-zero root on both resolutions still reaches everyone.
func TestScatterTranslatedRoot(t *testing.T) {
	for _, res := range []topology.Resolution{topology.HighToLow, topology.LowToHigh} {
		c := topology.New(5, res)
		r := Scatter(params(core.AllPort), c, 19, 512)
		if err := r.complete(c.Nodes()); err != nil {
			t.Fatalf("%v: %v", res, err)
		}
		if r.TotalBlocked != 0 {
			t.Errorf("%v: blocked %v", res, r.TotalBlocked)
		}
	}
}

// The scatter critical path is the chain of halving sends: its makespan
// must exceed the largest single transfer (N/2 blocks) but stay below the
// serial sum of all blocks plus overheads.
func TestScatterMakespanBounds(t *testing.T) {
	p := params(core.AllPort)
	c := cube(6)
	block := 1024
	r := Scatter(p, c, 0, block)
	minBound := p.TStartup + p.THop + event.Time(block*32)*p.TByte
	if r.Makespan <= minBound {
		t.Errorf("makespan %v <= lower bound %v", r.Makespan, minBound)
	}
	maxBound := event.Time(c.Nodes())*(p.TStartup+p.TRecv+p.THop) + event.Time(2*block*c.Nodes())*p.TByte
	if r.Makespan >= maxBound {
		t.Errorf("makespan %v >= loose upper bound %v", r.Makespan, maxBound)
	}
}

func TestGatherBasics(t *testing.T) {
	for n := 1; n <= 7; n++ {
		c := cube(n)
		r := Gather(params(core.AllPort), c, 0, 1024)
		if err := r.complete(c.Nodes()); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r.Messages != c.Nodes()-1 {
			t.Errorf("n=%d: messages = %d", n, r.Messages)
		}
		if r.TotalBlocked != 0 {
			t.Errorf("n=%d: gather blocked %v", n, r.TotalBlocked)
		}
		// The root finishes last (it assembles everything).
		for v, f := range r.Finish {
			if f > r.Finish[0] && v != 0 {
				t.Errorf("n=%d: node %v finished after root", n, v)
			}
		}
	}
}

// Gather and Scatter are time-symmetric up to software asymmetries: same
// message sizes on mirrored trees, so their makespans are within a small
// factor of each other.
func TestScatterGatherSymmetry(t *testing.T) {
	p := params(core.AllPort)
	c := cube(6)
	s := Scatter(p, c, 0, 1024)
	g := Gather(p, c, 0, 1024)
	ratio := float64(g.Makespan) / float64(s.Makespan)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("scatter %v vs gather %v (ratio %.2f)", s.Makespan, g.Makespan, ratio)
	}
}

func TestReduceBasics(t *testing.T) {
	p := params(core.AllPort)
	c := cube(5)
	r := Reduce(p, c, 7, 4096, 10*event.Microsecond)
	if err := r.complete(c.Nodes()); err != nil {
		t.Fatal(err)
	}
	if r.Messages != c.Nodes()-1 {
		t.Errorf("messages = %d", r.Messages)
	}
	if r.TotalBlocked != 0 {
		t.Errorf("reduce blocked %v", r.TotalBlocked)
	}
	// Compute cost increases the makespan.
	slow := Reduce(p, c, 7, 4096, 500*event.Microsecond)
	if slow.Makespan <= r.Makespan {
		t.Errorf("compute cost did not increase makespan: %v vs %v", slow.Makespan, r.Makespan)
	}
}

// Reduction with equal message sizes behaves like gather with fixed bytes:
// the root's finish grows with dimension (log depth).
func TestReduceScalesWithDim(t *testing.T) {
	p := params(core.AllPort)
	prev := event.Time(0)
	for n := 2; n <= 8; n++ {
		r := Reduce(p, cube(n), 0, 1024, 0)
		if r.Makespan <= prev {
			t.Errorf("n=%d: makespan %v did not grow", n, r.Makespan)
		}
		prev = r.Makespan
	}
}

func TestBarrierBasics(t *testing.T) {
	p := params(core.AllPort)
	for n := 1; n <= 7; n++ {
		c := cube(n)
		r := Barrier(p, c)
		if err := r.complete(c.Nodes()); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r.Messages != c.Nodes()*n {
			t.Errorf("n=%d: messages = %d, want %d", n, r.Messages, c.Nodes()*n)
		}
		if r.TotalBlocked != 0 {
			t.Errorf("n=%d: barrier blocked %v", n, r.TotalBlocked)
		}
	}
}

// Barrier time grows roughly linearly with the number of rounds (n).
func TestBarrierLinearInDim(t *testing.T) {
	p := params(core.AllPort)
	t4 := Barrier(p, cube(4)).Makespan
	t8 := Barrier(p, cube(8)).Makespan
	ratio := float64(t8) / float64(t4)
	if ratio < 1.5 || ratio > 3.0 {
		t.Errorf("barrier scaling t8/t4 = %.2f, want ~2", ratio)
	}
}

func TestAllGatherBasics(t *testing.T) {
	p := params(core.AllPort)
	for n := 1; n <= 6; n++ {
		c := cube(n)
		r := AllGather(p, c, 512)
		if err := r.complete(c.Nodes()); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r.Messages != c.Nodes()*n {
			t.Errorf("n=%d: messages = %d, want %d", n, r.Messages, c.Nodes()*n)
		}
		if r.TotalBlocked != 0 {
			t.Errorf("n=%d: all-gather blocked %v", n, r.TotalBlocked)
		}
	}
}

func TestAllReduceBasics(t *testing.T) {
	p := params(core.AllPort)
	for n := 1; n <= 6; n++ {
		c := cube(n)
		r := AllReduce(p, c, 4096, 10*event.Microsecond)
		if err := r.complete(c.Nodes()); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r.Messages != c.Nodes()*n {
			t.Errorf("n=%d: messages = %d, want %d", n, r.Messages, c.Nodes()*n)
		}
		if r.TotalBlocked != 0 {
			t.Errorf("n=%d: allreduce blocked %v", n, r.TotalBlocked)
		}
	}
}

// Butterfly allreduce beats reduce-then-broadcast (half the sequential
// rounds on the critical path).
func TestAllReduceFasterThanReduceBcast(t *testing.T) {
	p := params(core.AllPort)
	c := cube(6)
	ar := AllReduce(p, c, 4096, 0)
	rd := Reduce(p, c, 0, 4096, 0)
	// A following broadcast costs at least as much as the reduce did.
	if ar.Makespan >= rd.Makespan*2 {
		t.Errorf("allreduce %v not faster than reduce+bcast ~%v", ar.Makespan, rd.Makespan*2)
	}
	// Compute cost increases the makespan.
	slow := AllReduce(p, c, 4096, 300*event.Microsecond)
	if slow.Makespan <= ar.Makespan {
		t.Error("compute cost did not slow allreduce")
	}
}

func TestAllReduceValidation(t *testing.T) {
	p := params(core.AllPort)
	for _, fn := range []func(){
		func() { AllReduce(p, cube(3), -1, 0) },
		func() { AllReduce(p, cube(3), 8, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid allreduce accepted")
				}
			}()
			fn()
		}()
	}
}

// All-gather moves strictly more data than scatter, so it takes longer.
func TestAllGatherSlowerThanScatter(t *testing.T) {
	p := params(core.AllPort)
	c := cube(6)
	ag := AllGather(p, c, 1024)
	sc := Scatter(p, c, 0, 1024)
	if ag.Makespan <= sc.Makespan {
		t.Errorf("all-gather %v not slower than scatter %v", ag.Makespan, sc.Makespan)
	}
}

// All operations also complete under the one-port model, more slowly.
func TestOnePortComplete(t *testing.T) {
	c := cube(5)
	ap, op := params(core.AllPort), params(core.OnePort)
	pairs := []struct {
		name string
		run  func(p ncube.Params) Result
	}{
		{"scatter", func(p ncube.Params) Result { return Scatter(p, c, 0, 1024) }},
		{"gather", func(p ncube.Params) Result { return Gather(p, c, 0, 1024) }},
		{"reduce", func(p ncube.Params) Result { return Reduce(p, c, 0, 1024, 0) }},
		{"barrier", func(p ncube.Params) Result { return Barrier(p, c) }},
		{"allgather", func(p ncube.Params) Result { return AllGather(p, c, 256) }},
	}
	for _, pr := range pairs {
		fast := pr.run(ap)
		slow := pr.run(op)
		if err := slow.complete(c.Nodes()); err != nil {
			t.Fatalf("%s one-port: %v", pr.name, err)
		}
		if slow.Makespan < fast.Makespan {
			t.Errorf("%s: one-port %v faster than all-port %v", pr.name, slow.Makespan, fast.Makespan)
		}
	}
}

// Every launch rejects malformed input, standalone or on a session. A
// standalone data collective must validate the caller's rows before it
// clones them: the clone truncates or zero-pads to the first row, so a
// ragged input would pass a check made on the clone.
func TestValidationPanics(t *testing.T) {
	c := cube(4)
	p := params(core.AllPort)
	nodes := c.Nodes()
	session := func() *ncube.Session { return ncube.NewSession(p, c, ncube.Instrumentation{}) }
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: invalid input did not panic", name)
			}
		}()
		fn()
	}
	for name, fn := range map[string]func(){
		"Scatter block":     func() { Scatter(p, c, 0, -1) },
		"Scatter root":      func() { Scatter(p, c, 99, 8) },
		"ScatterOn block":   func() { ScatterOn(session(), 0, -1, nil) },
		"ScatterOn root":    func() { ScatterOn(session(), 99, 8, nil) },
		"Gather block":      func() { Gather(p, c, 0, -1) },
		"Gather root":       func() { Gather(p, c, 99, 8) },
		"GatherOn block":    func() { GatherOn(session(), 0, -1, nil) },
		"GatherOn root":     func() { GatherOn(session(), 99, 8, nil) },
		"Reduce bytes":      func() { Reduce(p, c, 0, -1, 0) },
		"Reduce compute":    func() { Reduce(p, c, 0, 8, -1) },
		"Reduce root":       func() { Reduce(p, c, 99, 8, 0) },
		"AllGather block":   func() { AllGather(p, c, -1) },
		"AllGatherOn block": func() { AllGatherOn(session(), -1, nil) },
	} {
		mustPanic(name, fn)
	}

	good := func() [][]float64 { return RandomData(1, nodes, 2*nodes) }
	inputs := []struct {
		name string
		in   func() [][]float64
	}{
		{"vector count", func() [][]float64 { return RandomData(1, nodes-1, 2*nodes) }},
		{"long row", func() [][]float64 { in := good(); in[5] = append(in[5], 1); return in }},
		{"short row", func() [][]float64 { in := good(); in[5] = in[5][:2*nodes-1]; return in }},
		{"empty vectors", func() [][]float64 { return RandomData(1, nodes, 0) }},
	}
	launches := []struct {
		name          string
		compute, root bool // whether tCompute and root apply
		run           func(in [][]float64, root topology.NodeID, tc event.Time)
	}{
		{"ReduceScatter", true, false, func(in [][]float64, _ topology.NodeID, tc event.Time) { ReduceScatter(p, c, in, tc) }},
		{"ReduceScatterOn", true, false, func(in [][]float64, _ topology.NodeID, tc event.Time) { ReduceScatterOn(session(), in, tc, nil) }},
		{"AllReduceHD", true, false, func(in [][]float64, _ topology.NodeID, tc event.Time) { AllReduceHD(p, c, in, tc) }},
		{"AllReduceHDOn", true, false, func(in [][]float64, _ topology.NodeID, tc event.Time) { AllReduceHDOn(session(), in, tc, nil) }},
		{"AllReduceRing", true, false, func(in [][]float64, _ topology.NodeID, tc event.Time) { AllReduceRing(p, c, in, tc) }},
		{"AllReduceRingOn", true, false, func(in [][]float64, _ topology.NodeID, tc event.Time) { AllReduceRingOn(session(), in, tc, nil) }},
		{"AllToAll", false, false, func(in [][]float64, _ topology.NodeID, _ event.Time) { AllToAll(p, c, in) }},
		{"AllToAllOn", false, false, func(in [][]float64, _ topology.NodeID, _ event.Time) { AllToAllOn(session(), in, nil) }},
		{"ReduceData", true, true, func(in [][]float64, root topology.NodeID, tc event.Time) { ReduceData(p, c, root, in, tc) }},
		{"ReduceDataOn", true, true, func(in [][]float64, root topology.NodeID, tc event.Time) { ReduceDataOn(session(), root, in, tc, nil) }},
	}
	for _, l := range launches {
		l.run(good(), 3, 0) // the valid baseline must not panic
		for _, bad := range inputs {
			mustPanic(l.name+" "+bad.name, func() { l.run(bad.in(), 3, 0) })
		}
		if l.compute {
			mustPanic(l.name+" compute", func() { l.run(good(), 3, -1) })
		}
		if l.root {
			mustPanic(l.name+" root", func() { l.run(good(), 99, 0) })
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := params(core.AllPort)
	c := cube(6)
	a := Scatter(p, c, 3, 777)
	b := Scatter(p, c, 3, 777)
	if a.Makespan != b.Makespan || a.Messages != b.Messages {
		t.Error("scatter nondeterministic")
	}
}
