package hypercube_test

import (
	"strings"
	"testing"

	"hypercube"
)

// The doc.go quick-start example, verified.
func TestQuickStart(t *testing.T) {
	cube := hypercube.New(4, hypercube.HighToLow)
	dests := []hypercube.NodeID{1, 3, 5, 7, 11, 12, 14, 15}
	tree := hypercube.Multicast(cube, hypercube.WSort, 0, dests)
	sched := hypercube.Schedule(tree, hypercube.AllPort)
	if sched.Steps() != 2 {
		t.Errorf("steps = %d, want 2", sched.Steps())
	}
	if cs := hypercube.CheckContention(sched); len(cs) != 0 {
		t.Errorf("contention: %v", cs)
	}
	out := sched.Format()
	if !strings.Contains(out, "w-sort multicast from 0000") {
		t.Errorf("format header missing:\n%s", out)
	}
}

func TestBroadcastFacade(t *testing.T) {
	cube := hypercube.New(5, hypercube.HighToLow)
	tree := hypercube.Broadcast(cube, hypercube.Maxport, 7)
	s := hypercube.Schedule(tree, hypercube.AllPort)
	if s.Steps() != 5 {
		t.Errorf("broadcast steps = %d, want 5", s.Steps())
	}
	if got := len(tree.Destinations()); got != 31 {
		t.Errorf("broadcast reaches %d nodes, want 31", got)
	}
}

func TestSimulateFacade(t *testing.T) {
	cube := hypercube.New(4, hypercube.HighToLow)
	dests := []hypercube.NodeID{1, 3, 5, 7, 11, 12, 14, 15}
	tree := hypercube.Multicast(cube, hypercube.WSort, 0, dests)
	res := hypercube.Simulate(hypercube.NCube2Params(hypercube.AllPort), tree, 4096)
	avg, max := res.Stats(dests)
	if avg <= 0 || max < avg {
		t.Errorf("avg=%v max=%v", avg, max)
	}
	if res.TotalBlocked != 0 {
		t.Errorf("W-sort blocked %v", res.TotalBlocked)
	}
}

func TestRandomDestsFacade(t *testing.T) {
	cube := hypercube.New(6, hypercube.HighToLow)
	a := hypercube.RandomDests(cube, 9, 0, 20)
	b := hypercube.RandomDests(cube, 9, 0, 20)
	if len(a) != 20 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("seeded draw not reproducible")
		}
	}
}

func TestCollectiveFacades(t *testing.T) {
	cube := hypercube.New(4, hypercube.HighToLow)
	p := hypercube.NCube2Params(hypercube.AllPort)
	ops := map[string]hypercube.CollectiveResult{
		"scatter":   hypercube.Scatter(p, cube, 0, 256),
		"gather":    hypercube.Gather(p, cube, 0, 256),
		"reduce":    hypercube.Reduce(p, cube, 0, 256, 0),
		"barrier":   hypercube.Barrier(p, cube),
		"allgather": hypercube.AllGather(p, cube, 256),
	}
	for name, r := range ops {
		if len(r.Finish) != cube.Nodes() {
			t.Errorf("%s: %d nodes finished", name, len(r.Finish))
		}
		if r.TotalBlocked != 0 {
			t.Errorf("%s blocked %v", name, r.TotalBlocked)
		}
	}
	ar := hypercube.AllReduce(p, cube, 1024, 0)
	if len(ar.Finish) != cube.Nodes() || ar.TotalBlocked != 0 {
		t.Errorf("allreduce: %d finished, blocked %v", len(ar.Finish), ar.TotalBlocked)
	}
	tree := hypercube.Multicast(cube, hypercube.WSort, 0, hypercube.RandomDests(cube, 4, 0, 8))
	rt := hypercube.ReduceTree(p, tree, 1024, 0)
	if len(rt.Finish) != 9 || rt.Messages != 8 {
		t.Errorf("reduce tree: %d finished, %d messages", len(rt.Finish), rt.Messages)
	}
}

func TestSimulateManyFacade(t *testing.T) {
	cube := hypercube.New(5, hypercube.HighToLow)
	p := hypercube.NCube2Params(hypercube.AllPort)
	trees := []*hypercube.Tree{
		hypercube.Multicast(cube, hypercube.WSort, 0, hypercube.RandomDests(cube, 1, 0, 10)),
		hypercube.Multicast(cube, hypercube.WSort, 31, hypercube.RandomDests(cube, 2, 31, 10)),
	}
	rs := hypercube.SimulateMany(p, trees, 1024)
	if len(rs) != 2 || len(rs[0].Recv) != 10 || len(rs[1].Recv) != 10 {
		t.Fatalf("SimulateMany results wrong: %v", rs)
	}
}

func TestGroupFacades(t *testing.T) {
	cube := hypercube.New(6, hypercube.HighToLow)
	world := hypercube.World(cube)
	if world.Size() != 64 {
		t.Fatalf("world size = %d", world.Size())
	}
	comm, err := hypercube.NewComm(cube, []hypercube.NodeID{5, 9, 41})
	if err != nil || comm.Size() != 3 {
		t.Fatalf("NewComm: %v, size %d", err, comm.Size())
	}
	rows := world.Split(func(rank int) int { return rank >> 3 })
	var groups []*hypercube.Comm
	var roots []int
	for c := 0; c < 8; c++ {
		groups = append(groups, rows[c])
		roots = append(roots, 0)
	}
	results := hypercube.Phase(hypercube.NCube2Params(hypercube.AllPort), 2048,
		hypercube.WSort, groups, roots)
	if len(results) != 8 {
		t.Fatalf("phase results = %d", len(results))
	}
	for i, r := range results {
		if len(r.Recv) != 7 {
			t.Fatalf("group %d receipts = %d", i, len(r.Recv))
		}
	}
}

func TestNCube3Faster(t *testing.T) {
	cube := hypercube.New(5, hypercube.HighToLow)
	dests := hypercube.RandomDests(cube, 3, 0, 12)
	tree := hypercube.Multicast(cube, hypercube.WSort, 0, dests)
	r2 := hypercube.Simulate(hypercube.NCube2Params(hypercube.AllPort), tree, 4096)
	r3 := hypercube.Simulate(hypercube.NCube3Params(hypercube.AllPort), tree, 4096)
	if r3.Makespan >= r2.Makespan {
		t.Errorf("nCUBE-3 (%v) not faster than nCUBE-2 (%v)", r3.Makespan, r2.Makespan)
	}
	// Algorithm ordering is preserved on the faster machine.
	ucTree := hypercube.Multicast(cube, hypercube.UCube, 0, dests)
	uc3 := hypercube.Simulate(hypercube.NCube3Params(hypercube.AllPort), ucTree, 4096)
	if uc3.Makespan < r3.Makespan {
		t.Errorf("U-cube beat W-sort on nCUBE-3: %v < %v", uc3.Makespan, r3.Makespan)
	}
}

// Every exported algorithm constant round-trips through the facade.
func TestAlgorithmConstants(t *testing.T) {
	algos := []hypercube.Algorithm{
		hypercube.SeparateAddressing, hypercube.SFBinomial, hypercube.UCube,
		hypercube.Maxport, hypercube.Combine, hypercube.WSort,
	}
	cube := hypercube.New(4, hypercube.HighToLow)
	for _, a := range algos {
		tree := hypercube.Multicast(cube, a, 0, []hypercube.NodeID{6, 9})
		if tree.Algorithm != a {
			t.Errorf("algorithm %v not preserved", a)
		}
	}
}

// Malformed machine configurations are reported by CheckMachineParams —
// one case per validated field.
func TestCheckMachineParams(t *testing.T) {
	good := hypercube.NCube2Params(hypercube.AllPort)
	if err := hypercube.CheckMachineParams(good); err != nil {
		t.Fatalf("calibrated params rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*hypercube.MachineParams)
		want string
	}{
		{"negative startup", func(p *hypercube.MachineParams) { p.TStartup = -1 }, "negative timing"},
		{"negative recv", func(p *hypercube.MachineParams) { p.TRecv = -1 }, "negative timing"},
		{"negative hop", func(p *hypercube.MachineParams) { p.THop = -1 }, "negative timing"},
		{"negative byte", func(p *hypercube.MachineParams) { p.TByte = -1 }, "negative timing"},
		{"bad port", func(p *hypercube.MachineParams) { p.Port = 7 }, "port model"},
		{"negative timeout", func(p *hypercube.MachineParams) { p.AckTimeout = -1 }, "ack timeout"},
		{"sub-unit backoff", func(p *hypercube.MachineParams) { p.AckBackoff = 0.5 }, "backoff"},
		{"negative retries", func(p *hypercube.MachineParams) { p.MaxRetries = -1 }, "retry budget"},
		{"negative watchdog", func(p *hypercube.MachineParams) { p.WatchdogSteps = -1 }, "watchdog"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := good
			tc.mut(&p)
			err := hypercube.CheckMachineParams(p)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// Malformed fault plans are reported by CheckFaultPlan.
func TestCheckFaultPlan(t *testing.T) {
	cube := hypercube.New(3, hypercube.HighToLow)
	ok := hypercube.FaultPlan{
		Links: hypercube.RandomLinkFaults(cube, 1, 2),
		Nodes: []hypercube.NodeFault{{Node: 3}},
	}
	if err := hypercube.CheckFaultPlan(cube, ok); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	cases := []struct {
		name string
		plan hypercube.FaultPlan
		want string
	}{
		{"drop rate", hypercube.FaultPlan{DropRate: 1.5}, "drop rate"},
		{"truncate rate", hypercube.FaultPlan{TruncateRate: -0.1}, "truncate rate"},
		{"bad mode", hypercube.FaultPlan{Mode: 9}, "mode"},
		{"link outside", hypercube.FaultPlan{Links: []hypercube.LinkFault{
			{Arc: hypercube.Arc{From: 99, Dim: 0}}}}, "outside"},
		{"link dim", hypercube.FaultPlan{Links: []hypercube.LinkFault{
			{Arc: hypercube.Arc{From: 0, Dim: 5}}}}, "outside"},
		{"node outside", hypercube.FaultPlan{Nodes: []hypercube.NodeFault{{Node: 64}}}, "outside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := hypercube.CheckFaultPlan(cube, tc.plan)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// The fault-tolerant facade: a killed on-tree link still reaches every
// destination, with per-destination statuses exposed.
func TestSimulateFaultTolerantFacade(t *testing.T) {
	cube := hypercube.New(3, hypercube.HighToLow)
	tree := hypercube.Broadcast(cube, hypercube.WSort, 0)
	first := tree.SendsFrom(0)[0]
	arc := cube.PathArcs(first.From, first.To)[0]
	res, err := hypercube.SimulateFaultTolerant(
		hypercube.NCube2Params(hypercube.AllPort), cube, hypercube.WSort,
		0, tree.Destinations(), 256,
		hypercube.FaultPlan{Links: []hypercube.LinkFault{{Arc: arc}}})
	if err != nil {
		t.Fatalf("SimulateFaultTolerant: %v", err)
	}
	for _, d := range tree.Destinations() {
		if !res.Status[d].Reached() {
			t.Fatalf("destination %v not reached: %v", d, res.Status[d])
		}
	}
	if res.Status[first.To] != hypercube.StatusRerouted {
		t.Fatalf("cut-off child status %v", res.Status[first.To])
	}
	// Malformed inputs surface as errors through the facade, not panics.
	bad := hypercube.NCube2Params(hypercube.AllPort)
	bad.AckBackoff = 0.1
	if _, err := hypercube.SimulateFaultTolerant(bad, cube, hypercube.WSort, 0,
		tree.Destinations(), 256, hypercube.FaultPlan{}); err == nil {
		t.Fatal("invalid backoff accepted")
	}
}
