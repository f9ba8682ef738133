package ncube

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/faults"
	"hypercube/internal/topology"
)

// TestSessionInjectMatchesDistributed: a single tree injected into an
// otherwise idle session must reproduce, in op-relative time, the
// independent reference executor — the distributed protocol of
// RunDistributed at zero jitter, which shares no code with the session —
// exactly: same Recv map, Makespan, and TotalBlocked, regardless of the
// injection instant. This is the substrate guarantee the traffic engine's
// isolated-op acceptance criterion rests on.
func TestSessionInjectMatchesDistributed(t *testing.T) {
	cube := topology.New(4, topology.HighToLow)
	dests := []topology.NodeID{1, 3, 5, 7, 9, 12, 14, 15}
	for _, alg := range core.Algorithms() {
		for _, port := range []core.PortModel{core.OnePort, core.AllPort} {
			want := RunDistributed(JitterParams{Params: NCube2(port)}, cube, alg, 3, dests, 4096)
			for _, at := range []event.Time{0, 777 * event.Microsecond} {
				s := NewSession(NCube2(port), cube, Instrumentation{})
				res := s.InjectTree(at, core.Build(cube, alg, 3, dests), 4096, nil)
				if err := s.Run(0, 0); err != nil {
					t.Fatalf("%v/%v at %v: session run: %v", alg, port, at, err)
				}
				got := *res
				s.Release()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v/%v at %v: session diverges from the distributed reference\n got %+v\nwant %+v", alg, port, at, got, want)
				}
			}
		}
	}
}

// TestSessionDoneFiresAtMakespan: the completion hook runs at the op's
// last-arrival instant on the shared calendar.
func TestSessionDoneFiresAtMakespan(t *testing.T) {
	cube := topology.New(5, topology.HighToLow)
	tr := core.Build(cube, mustAlg(t, "w-sort"), 0, []topology.NodeID{1, 4, 9, 17, 22, 31})
	const at = 250 * event.Microsecond

	s := NewSession(NCube2(core.AllPort), cube, Instrumentation{})
	var doneAt event.Time
	var doneRes *Result
	res := s.InjectTree(at, tr, 1024, func(r *Result) {
		doneAt = s.Now()
		doneRes = r
	})
	if err := s.Run(0, 0); err != nil {
		t.Fatalf("session run: %v", err)
	}
	if doneRes != res {
		t.Fatalf("done hook received a different result pointer")
	}
	if want := at + res.Makespan; doneAt != want {
		t.Errorf("done fired at %v, want injection %v + makespan %v = %v", doneAt, at, res.Makespan, want)
	}
	s.Release()
}

// TestSessionTwoOpsSharedNetwork: two trees on one session both complete,
// and re-running the identical scenario on a fresh (pooled) session gives
// byte-identical results — pooled reuse must not leak state.
func TestSessionTwoOpsSharedNetwork(t *testing.T) {
	cube := topology.New(5, topology.HighToLow)
	trA := core.Build(cube, mustAlg(t, "w-sort"), 0, []topology.NodeID{3, 7, 11, 19, 30})
	trB := core.Build(cube, mustAlg(t, "u-cube"), 5, []topology.NodeID{2, 9, 16, 27})

	runOnce := func() (Result, Result) {
		s := NewSession(NCube2(core.AllPort), cube, Instrumentation{})
		ra := s.InjectTree(0, trA, 2048, nil)
		rb := s.InjectTree(40*event.Microsecond, trB, 2048, nil)
		if err := s.Run(0, 0); err != nil {
			t.Fatalf("session run: %v", err)
		}
		a, b := *ra, *rb
		s.Release()
		return a, b
	}
	a1, b1 := runOnce()
	a2, b2 := runOnce()
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) {
		t.Errorf("pooled re-run diverged:\nA1 %+v\nA2 %+v\nB1 %+v\nB2 %+v", a1, a2, b1, b2)
	}
	if len(a1.Recv) != 5 || len(b1.Recv) != 4 {
		t.Errorf("incomplete deliveries: |A|=%d |B|=%d", len(a1.Recv), len(b1.Recv))
	}
}

// TestSessionFaultHygieneAfterReuse: a session that ran a heavily faulted
// scenario (dead links stranding a tree, a dead node forcing the reliable
// protocol through retries) and was Released must, when reborrowed for a
// fault-free scenario, produce results byte-identical to a run that never
// saw faults. Runs under -race in CI's race stage: the pool may hand the
// dirty session to any goroutine.
func TestSessionFaultHygieneAfterReuse(t *testing.T) {
	cube := topology.New(4, topology.HighToLow)
	tr := core.Build(cube, mustAlg(t, "w-sort"), 0, []topology.NodeID{1, 3, 5, 7, 9, 12, 14})

	cleanRun := func() Result {
		s := NewSession(NCube2(core.AllPort), cube, Instrumentation{})
		r := s.InjectTree(0, tr, 4096, nil)
		if err := s.Run(0, 0); err != nil {
			t.Fatalf("clean run: %v", err)
		}
		out := *r
		s.Release()
		return out
	}
	want := cleanRun()
	if len(want.Recv) != 7 {
		t.Fatalf("clean run delivered %d/7", len(want.Recv))
	}

	for cycle := 0; cycle < 3; cycle++ {
		// Dirty the pooled session: sever the root's links and fail-stop
		// a destination, then drive both the plain-tree loss accounting
		// and the full ack/retry/repair protocol across it.
		s := NewSession(NCube2(core.AllPort), cube, Instrumentation{})
		sch := faults.NewSchedule()
		for dim := 0; dim < 2; dim++ {
			sch.AddLink(topology.Arc{From: 0, Dim: dim}, 0, 0, false)
		}
		sch.AddNode(9, 0)
		s.SetFaults(sch)
		s.SetExtraDiagnoser(func() string { return "dirty scenario" })
		rt := s.InjectTree(0, tr, 4096, nil)
		rf := s.InjectFaultTolerant(0, mustAlg(t, "w-sort"), 15,
			[]topology.NodeID{9, 11, 14}, 4096, sch, nil)
		if err := s.Run(0, 0); err != nil {
			t.Fatalf("cycle %d faulted run: %v", cycle, err)
		}
		if len(rt.Recv) == 7 {
			t.Fatalf("cycle %d: severed tree still delivered everywhere", cycle)
		}
		delivered := 0
		for _, how := range rf.Status {
			if how.Reached() {
				delivered++
			}
		}
		if len(rf.Status) != 3 || delivered != 2 {
			t.Fatalf("cycle %d: ft op status %v, want 2 reached of 3", cycle, rf.Status)
		}
		s.Release()

		if got := cleanRun(); !reflect.DeepEqual(got, want) {
			t.Errorf("cycle %d: fault-free run on a recycled session diverged:\n got %+v\nwant %+v", cycle, got, want)
		}
	}
}

func mustAlg(t *testing.T, name string) core.Algorithm {
	t.Helper()
	a, err := core.ParseAlgorithm(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// slabScenario runs a mixed-tree scenario on s and returns copies of its
// results. Every tree touches the same few nodes, two ops join mid-run
// (one from a completion hook, one from a timed callback), so a session
// whose slabs start empty must grow both of them while ops are executing.
func slabScenario(s *Session) ([]Result, error) {
	cube := s.Network().Cube()
	n := topology.NodeID(cube.Nodes())
	dests := func(src topology.NodeID) []topology.NodeID {
		var out []topology.NodeID
		for v := topology.NodeID(1); v < n; v += 2 {
			if d := (v + src) % n; d != src {
				out = append(out, d)
			}
		}
		return out
	}
	build := func(a core.Algorithm, src topology.NodeID) *core.Tree {
		return core.Build(cube, a, src, dests(src))
	}
	var res []*Result
	res = append(res, s.InjectTree(0, build(core.WSort, 0), 2048, func(*Result) {
		res = append(res, s.InjectTree(s.Now(), build(core.Combine, 2), 2048, nil))
	}))
	res = append(res, s.InjectTree(0, build(core.UCube, n-1), 2048, nil))
	res = append(res, s.InjectTree(30*event.Microsecond, build(core.Maxport, 1), 2048, nil))
	s.At(150*event.Microsecond, func() {
		res = append(res, s.InjectTree(s.Now(), build(core.SFBinomial, 3), 2048, nil))
	})
	if err := s.Run(0, 0); err != nil {
		return nil, err
	}
	if len(res) != 5 {
		return nil, fmt.Errorf("slab scenario ran %d ops, want 5", len(res))
	}
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = *r
	}
	return out, nil
}

// TestSessionSlabHygiene: a session whose op and node slabs grow mid-run,
// then are scrubbed and reused on a smaller cube, must give results
// reflect.DeepEqual to the same scenarios on never-used sessions. The
// pooled half runs on concurrent goroutines so -race sees sessions (and
// their slabs) handed between them by the pool.
func TestSessionSlabHygiene(t *testing.T) {
	p := NCube2(core.AllPort)
	big, small := topology.New(5, topology.HighToLow), topology.New(3, topology.HighToLow)
	scenario := func(s *Session) []Result {
		t.Helper()
		res, err := slabScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wantBig := scenario(new(Session).bind(p, big, Instrumentation{}))
	wantSmall := scenario(new(Session).bind(p, small, Instrumentation{}))

	s := new(Session).bind(p, big, Instrumentation{})
	if got := scenario(s); !reflect.DeepEqual(got, wantBig) {
		t.Fatalf("growing slabs mid-run changed results:\n got %+v\nwant %+v", got, wantBig)
	}
	// Three ops injected before the run leave the slabs at 2 ops and 2
	// cubes' worth of nodes; reaching 4 means they grew mid-run.
	if cap(s.ops) < 4 || cap(s.nodes) < 4*big.Nodes() {
		t.Fatalf("slabs never grew mid-run: ops cap %d, nodes cap %d", cap(s.ops), cap(s.nodes))
	}
	s.scrub()
	if got := scenario(s.bind(p, small, Instrumentation{})); !reflect.DeepEqual(got, wantSmall) {
		t.Fatalf("scrubbed session reused on a smaller cube diverged:\n got %+v\nwant %+v", got, wantSmall)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				cube, want := big, wantBig
				if round%2 == 1 {
					cube, want = small, wantSmall
				}
				s := NewSession(p, cube, Instrumentation{})
				got, err := slabScenario(s)
				s.Release()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("pooled %d-cube scenario diverged from a fresh session", cube.Dim())
					return
				}
			}
		}()
	}
	wg.Wait()
}
