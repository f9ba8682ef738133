// Benchmarks regenerating each figure of the paper's evaluation (Section
// 5) at reduced trial counts, plus micro-benchmarks of the core machinery.
// The full-size figures are produced by the cmd/stepwise, cmd/delay, and
// cmd/simlarge drivers; these benches keep the harness honest and expose
// the cost of each experiment. Custom metrics report the headline numbers
// so regressions in *results* (not just speed) are visible:
//
//	steps/u-cube, steps/w-sort  — stepwise benches (mid-range point)
//	us/u-cube, us/w-sort        — delay benches (mid-range point)
package hypercube_test

import (
	"fmt"
	"runtime"
	"testing"

	"hypercube"
	"hypercube/internal/chain"
	"hypercube/internal/core"
	"hypercube/internal/emulator"
	"hypercube/internal/event"
	"hypercube/internal/flitsim"
	"hypercube/internal/ncube"
	"hypercube/internal/optimal"
	"hypercube/internal/stats"
	"hypercube/internal/topology"
	"hypercube/internal/traffic"
	"hypercube/internal/workload"
)

// midpointMetrics reports a table's mid-row cells as custom benchmark
// metrics, suffixed by unit.
func midpointMetrics(b *testing.B, tb *stats.Table, unit string) {
	if len(tb.Rows) == 0 {
		return
	}
	row := tb.Rows[len(tb.Rows)/2]
	for i, col := range tb.Columns {
		b.ReportMetric(row.Cells[i], unit+"/"+col)
	}
}

// BenchmarkFig09Stepwise6Cube regenerates Figure 9: average of maximum
// steps on a 6-cube, all-port.
func BenchmarkFig09Stepwise6Cube(b *testing.B) {
	b.ReportAllocs()
	var tb *stats.Table
	for i := 0; i < b.N; i++ {
		tb = workload.Stepwise(workload.StepwiseConfig{
			Dim: 6, Trials: 20, Seed: 1993, Port: core.AllPort,
			DestCounts: workload.DestCounts(6, 16),
		})
	}
	midpointMetrics(b, tb, "steps")
}

// BenchmarkFig10Stepwise10Cube regenerates Figure 10: average of maximum
// steps on a 10-cube, all-port.
func BenchmarkFig10Stepwise10Cube(b *testing.B) {
	b.ReportAllocs()
	var tb *stats.Table
	for i := 0; i < b.N; i++ {
		tb = workload.Stepwise(workload.StepwiseConfig{
			Dim: 10, Trials: 5, Seed: 1993, Port: core.AllPort,
			DestCounts: workload.DestCounts(10, 8),
		})
	}
	midpointMetrics(b, tb, "steps")
}

// BenchmarkFig11AvgDelay5Cube regenerates Figure 11: average delay of
// 4096-byte multicasts on the 5-cube nCUBE-2 model.
func BenchmarkFig11AvgDelay5Cube(b *testing.B) {
	b.ReportAllocs()
	var tb *stats.Table
	for i := 0; i < b.N; i++ {
		tb = workload.Delay(workload.DelayConfig{
			Dim: 5, Trials: 10, Seed: 1993, Bytes: 4096,
			Stat: workload.AvgDelay, DestCounts: workload.DestCounts(5, 8),
		})
	}
	midpointMetrics(b, tb, "us")
}

// BenchmarkFig12MaxDelay5Cube regenerates Figure 12: maximum delay on the
// 5-cube nCUBE-2 model.
func BenchmarkFig12MaxDelay5Cube(b *testing.B) {
	b.ReportAllocs()
	var tb *stats.Table
	for i := 0; i < b.N; i++ {
		tb = workload.Delay(workload.DelayConfig{
			Dim: 5, Trials: 10, Seed: 1993, Bytes: 4096,
			Stat: workload.MaxDelay, DestCounts: workload.DestCounts(5, 8),
		})
	}
	midpointMetrics(b, tb, "us")
}

// BenchmarkFig13AvgDelay10Cube regenerates Figure 13: average delay on the
// simulated 1024-node system.
func BenchmarkFig13AvgDelay10Cube(b *testing.B) {
	b.ReportAllocs()
	var tb *stats.Table
	for i := 0; i < b.N; i++ {
		tb = workload.Delay(workload.DelayConfig{
			Dim: 10, Trials: 3, Seed: 1993, Bytes: 4096,
			Stat: workload.AvgDelay, DestCounts: workload.DestCounts(10, 6),
		})
	}
	midpointMetrics(b, tb, "us")
}

// BenchmarkFig14MaxDelay10Cube regenerates Figure 14: maximum delay on the
// simulated 1024-node system.
func BenchmarkFig14MaxDelay10Cube(b *testing.B) {
	b.ReportAllocs()
	var tb *stats.Table
	for i := 0; i < b.N; i++ {
		tb = workload.Delay(workload.DelayConfig{
			Dim: 10, Trials: 3, Seed: 1993, Bytes: 4096,
			Stat: workload.MaxDelay, DestCounts: workload.DestCounts(10, 6),
		})
	}
	midpointMetrics(b, tb, "us")
}

// BenchmarkSizeSweep5Cube regenerates the Section 5.2 "messages of various
// sizes" measurement at a fixed 12-destination load.
func BenchmarkSizeSweep5Cube(b *testing.B) {
	b.ReportAllocs()
	var tb *stats.Table
	for i := 0; i < b.N; i++ {
		tb = workload.SizeSweep(workload.SizeSweepConfig{
			Dim: 5, Dests: 12, Trials: 10, Seed: 1993,
			Sizes: []int{512, 4096, 16384},
		})
	}
	midpointMetrics(b, tb, "us")
}

// BenchmarkExtConcurrent6Cube regenerates the interference extension
// experiment (not in the paper): k simultaneous multicasts on one network.
func BenchmarkExtConcurrent6Cube(b *testing.B) {
	b.ReportAllocs()
	var tb *stats.Table
	for i := 0; i < b.N; i++ {
		tb = workload.Concurrent(workload.ConcurrentConfig{
			Dim: 6, Dests: 12, Trials: 8, Seed: 1993, Counts: []int{1, 4, 8},
		})
	}
	midpointMetrics(b, tb, "us")
}

// --- micro-benchmarks -----------------------------------------------------

func benchBuild(b *testing.B, a hypercube.Algorithm, n, m int) {
	cube := hypercube.New(n, hypercube.HighToLow)
	dests := hypercube.RandomDests(cube, 7, 0, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hypercube.Multicast(cube, a, 0, dests)
	}
}

func BenchmarkBuildUCube10Cube512(b *testing.B) {
	b.ReportAllocs()
	benchBuild(b, hypercube.UCube, 10, 512)
}
func BenchmarkBuildMaxport10Cube512(b *testing.B) {
	b.ReportAllocs()
	benchBuild(b, hypercube.Maxport, 10, 512)
}
func BenchmarkBuildCombine10Cube512(b *testing.B) {
	b.ReportAllocs()
	benchBuild(b, hypercube.Combine, 10, 512)
}
func BenchmarkBuildWSort10Cube512(b *testing.B) {
	b.ReportAllocs()
	benchBuild(b, hypercube.WSort, 10, 512)
}

// Weighted sort: centralized Figure 7 procedure vs the O(m log m) variant.
func benchWeightedSort(b *testing.B, fast bool, n, m int) {
	cube := topology.New(n, topology.HighToLow)
	base := chain.Relative(cube, 0, workload.NewGenerator(cube, 5).Dests(0, m))
	buf := make(chain.Chain, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, base)
		if fast {
			buf.WeightedSortFast(n)
		} else {
			buf.WeightedSort(n)
		}
	}
}

func BenchmarkWeightedSortCentralized(b *testing.B) {
	b.ReportAllocs()
	benchWeightedSort(b, false, 12, 2048)
}
func BenchmarkWeightedSortFast(b *testing.B) { b.ReportAllocs(); benchWeightedSort(b, true, 12, 2048) }

// Stepwise scheduling of a large tree.
func BenchmarkScheduleAllPort(b *testing.B) {
	b.ReportAllocs()
	cube := hypercube.New(10, hypercube.HighToLow)
	tree := hypercube.Multicast(cube, hypercube.WSort, 0, hypercube.RandomDests(cube, 3, 0, 512))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hypercube.Schedule(tree, hypercube.AllPort)
	}
}

// Full machine simulation of one 1024-node broadcast.
func BenchmarkSimulateBroadcast10Cube(b *testing.B) {
	b.ReportAllocs()
	cube := hypercube.New(10, hypercube.HighToLow)
	tree := hypercube.Broadcast(cube, hypercube.WSort, 0)
	params := hypercube.NCube2Params(hypercube.AllPort)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hypercube.Simulate(params, tree, 4096)
	}
}

// BenchmarkCoreBuildSchedule is the tree-construction and step-scheduling
// layer alone: the Figure 9 tree mix at BenchmarkFig09Stepwise6Cube's
// fidelity (6-cube, every destination count, 20 sets each, the four paper
// algorithms), built and scheduled all-port from inputs drawn up front.
func BenchmarkCoreBuildSchedule(b *testing.B) {
	b.ReportAllocs()
	cube := topology.New(6, topology.HighToLow)
	type input struct {
		src   topology.NodeID
		dests []topology.NodeID
	}
	var ins []input
	for _, m := range workload.DestCounts(6, 16) {
		gen := workload.NewGenerator(cube, 1993+int64(m))
		for trial := 0; trial < 20; trial++ {
			src := gen.Source()
			ins = append(ins, input{src, gen.Dests(src, m)})
		}
	}
	algs := []core.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			for _, a := range algs {
				core.NewSchedule(core.Build(cube, a, in.src, in.dests), core.AllPort)
			}
		}
	}
}

// calendarOp is BenchmarkEventCalendar's typed event.
type calendarOp struct{ fired int }

func (o *calendarOp) RunEvent() { o.fired++ }

// BenchmarkEventCalendar is the event-kernel layer alone, in the shape of
// a Figure 13 run: a calendar held at depth 170 (the mean depth at pop
// there), every executed event scheduling its successor, alternately a
// typed Op and a closure, at delays with many equal instants. One op is
// one schedule plus one Step.
func BenchmarkEventCalendar(b *testing.B) {
	b.ReportAllocs()
	const depth = 170
	delays := make([]event.Time, 1024)
	for i := range delays {
		delays[i] = event.Time(i*7919%13) * 150 * event.Nanosecond
	}
	var q event.Queue
	op := &calendarOp{}
	fn := func() { op.fired++ }
	for i := 0; i < depth; i++ {
		q.AtOp(delays[i], op)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := delays[i%len(delays)]; i%2 == 0 {
			q.AfterOp(d, op)
		} else {
			q.After(d, fn)
		}
		q.Step()
	}
}

// BenchmarkSeededDraw is the seeded-draw floor of canonicalization and
// keying: one re-seed plus a 32-of-63 destination draw on a 6-cube, the
// draw behind every multicast of a traffic storm.
func BenchmarkSeededDraw(b *testing.B) {
	b.ReportAllocs()
	cube := topology.New(6, topology.HighToLow)
	for i := 0; i < b.N; i++ {
		workload.DrawDests(cube, int64(i), 0, 32)
	}
}

// Definition 4 contention checking (quadratic in unicasts).
func BenchmarkCheckContention(b *testing.B) {
	b.ReportAllocs()
	cube := hypercube.New(8, hypercube.HighToLow)
	tree := hypercube.Multicast(cube, hypercube.WSort, 0, hypercube.RandomDests(cube, 11, 0, 128))
	s := hypercube.Schedule(tree, hypercube.AllPort)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cs := hypercube.CheckContention(s); len(cs) != 0 {
			b.Fatal("unexpected contention")
		}
	}
}

// Ablation: the cost/benefit of the weighted sort, reported as the step
// advantage of W-sort over plain Maxport at a mid-load point.
func BenchmarkAblationWeightedSortBenefit(b *testing.B) {
	b.ReportAllocs()
	cube := hypercube.New(8, hypercube.HighToLow)
	var gain float64
	for i := 0; i < b.N; i++ {
		gen := workload.NewGenerator(topology.New(8, topology.HighToLow), int64(i))
		var mp, ws float64
		for trial := 0; trial < 10; trial++ {
			src := gen.Source()
			dests := gen.Dests(src, 64)
			mp += float64(hypercube.Schedule(hypercube.Multicast(cube, hypercube.Maxport, src, dests), hypercube.AllPort).Steps())
			ws += float64(hypercube.Schedule(hypercube.Multicast(cube, hypercube.WSort, src, dests), hypercube.AllPort).Steps())
		}
		gain = (mp - ws) / 10
	}
	b.ReportMetric(gain, "steps-saved")
}

// Collective operations on the 64-node machine model.
func BenchmarkCollectiveScatter6Cube(b *testing.B) {
	b.ReportAllocs()
	cube := hypercube.New(6, hypercube.HighToLow)
	p := hypercube.NCube2Params(hypercube.AllPort)
	for i := 0; i < b.N; i++ {
		hypercube.Scatter(p, cube, 0, 1024)
	}
}

func BenchmarkCollectiveBarrier8Cube(b *testing.B) {
	b.ReportAllocs()
	cube := hypercube.New(8, hypercube.HighToLow)
	p := hypercube.NCube2Params(hypercube.AllPort)
	for i := 0; i < b.N; i++ {
		hypercube.Barrier(p, cube)
	}
}

// Flit-level simulation of one 4 KB unicast across a 10-cube (4096 cycles
// of pipeline per message) — the cost of the high-fidelity backend.
func BenchmarkFlitLevelUnicast(b *testing.B) {
	b.ReportAllocs()
	cube := topology.New(10, topology.HighToLow)
	for i := 0; i < b.N; i++ {
		nw := flitsim.New(cube, flitsim.Config{BufFlits: 2})
		nw.Send(0, 1023, 4096, 0)
		nw.Run()
	}
}

// Concurrent goroutine-per-node emulation of a 128-node broadcast.
func BenchmarkEmulatorBroadcast7Cube(b *testing.B) {
	b.ReportAllocs()
	cube := topology.New(7, topology.HighToLow)
	e := emulator.New(cube)
	defer e.Close()
	var dests []topology.NodeID
	for v := 1; v < cube.Nodes(); v++ {
		dests = append(dests, topology.NodeID(v))
	}
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(core.Maxport, 0, dests, payload)
	}
}

// Interference study: four overlapping 20-destination W-sort multicasts on
// one 64-node network.
func BenchmarkSimulateManyConcurrent(b *testing.B) {
	b.ReportAllocs()
	cube := hypercube.New(6, hypercube.HighToLow)
	p := hypercube.NCube2Params(hypercube.AllPort)
	var trees []*hypercube.Tree
	for k := 0; k < 4; k++ {
		src := hypercube.NodeID(k * 16)
		trees = append(trees, hypercube.Multicast(cube, hypercube.WSort, src,
			hypercube.RandomDests(cube, int64(k), src, 20)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hypercube.SimulateMany(p, trees, 4096)
	}
}

// parallelBroadcastTrees is the 12-cube broadcast batch of the parallel
// scaling benchmark and the cmd/bench gate: eight independent broadcasts
// from distinct sources, each its own conflict domain.
func parallelBroadcastTrees() (hypercube.MachineParams, []*hypercube.Tree) {
	cube := hypercube.New(12, hypercube.HighToLow)
	var trees []*hypercube.Tree
	for k := 0; k < 8; k++ {
		trees = append(trees, hypercube.Broadcast(cube, hypercube.WSort, hypercube.NodeID(k*512)))
	}
	return hypercube.NCube2Params(hypercube.AllPort), trees
}

// BenchmarkParallelBroadcast12Cube measures the parallel batch executor on
// eight independent 12-cube broadcasts at 1 worker versus every available
// CPU. The results are byte-identical at both counts (the differential
// wall pins that); the only thing at stake here is wall time.
func BenchmarkParallelBroadcast12Cube(b *testing.B) {
	p, trees := parallelBroadcastTrees()
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			pw := p
			pw.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hypercube.SimulateBatch(pw, trees, 4096)
			}
		})
	}
}

// Exact-optimal search on the paper's Figure 3 instance.
func BenchmarkOptimalSearchFig3(b *testing.B) {
	b.ReportAllocs()
	cube := topology.New(4, topology.HighToLow)
	dests := []topology.NodeID{1, 3, 5, 7, 11, 12, 14, 15}
	for i := 0; i < b.N; i++ {
		if optimal.Steps(cube, 0, dests, 4) != 2 {
			b.Fatal("wrong optimum")
		}
	}
}

// Traffic engine: a small explicit scenario with a dependency chain —
// the per-op bookkeeping cost on top of the pooled simulation core.
func BenchmarkTrafficSmallScenario5Cube(b *testing.B) {
	b.ReportAllocs()
	// Run canonicalizes the spec in place, so each iteration gets a fresh
	// copy — building it is part of the admission path being measured.
	mk := func() *traffic.Spec {
		return &traffic.Spec{
			Dim: 5,
			Ops: []traffic.Op{
				{ID: "mc0", Kind: traffic.KindMulticast, Src: 3, DestCount: 12, Seed: 7, Bytes: 2048},
				{ID: "mc1", Kind: traffic.KindMulticast, Src: 17, DestCount: 12, Seed: 8, Bytes: 2048},
				{ID: "sc", Kind: traffic.KindScatter, Src: 0, Bytes: 1024},
				{ID: "ga", Kind: traffic.KindGather, Src: 0, Bytes: 1024, After: []string{"sc"}},
				{ID: "bc", Kind: traffic.KindBroadcast, Src: 9, Bytes: 2048, After: []string{"mc0"}, DelayUS: 100},
				{ID: "ag", Kind: traffic.KindAllGather, Bytes: 512, After: []string{"ga"}},
			},
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := traffic.Run(mk()); err != nil {
			b.Fatal(err)
		}
	}
}

// Traffic engine near saturation: a 6-cube under a dense Poisson storm of
// multicasts — the worst-case shared-network workload of cmd/traffic's
// sweep, with injector queues and channel contention fully engaged.
func BenchmarkTrafficSaturation6Cube(b *testing.B) {
	b.ReportAllocs()
	mk := func() *traffic.Spec {
		return &traffic.Spec{
			Dim:  6,
			Seed: 1993,
			Arrivals: &traffic.Arrivals{
				Kind: "poisson", Count: 48, RatePerMS: 8,
				Op: traffic.Template{Kind: traffic.KindMulticast, DestCount: 32, Bytes: 4096},
			},
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := traffic.Run(mk()); err != nil {
			b.Fatal(err)
		}
	}
}

// Multi-lane path: the same Poisson-storm shape on a 4-lane 5-cube —
// guards the virtual-channel machinery's cost (per-lane tables, policy
// dispatch, arc-level arbitration) on a workload where the lanes are
// actually contended. The 1-lane hot path is guarded separately by
// BenchmarkTrafficSaturation6Cube, which never enters the VC slow path.
func BenchmarkTrafficMultiLane5Cube(b *testing.B) {
	b.ReportAllocs()
	mk := func() *traffic.Spec {
		return &traffic.Spec{
			Dim:      5,
			Seed:     1993,
			Lanes:    4,
			VCPolicy: "round-robin",
			Arrivals: &traffic.Arrivals{
				Kind: "poisson", Count: 24, RatePerMS: 6,
				Op: traffic.Template{Kind: traffic.KindMulticast, DestCount: 16, Bytes: 4096},
			},
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := traffic.Run(mk()); err != nil {
			b.Fatal(err)
		}
	}
}

// Data-carrying path: a Poisson stream of payload-verified allreduces —
// the gradient-aggregation workload. Guards the combined cost of payload
// synthesis, the halving+doubling schedule, and end-to-end verification
// on top of the pooled simulation core.
func BenchmarkTrafficAllReduce5Cube(b *testing.B) {
	b.ReportAllocs()
	mk := func() *traffic.Spec {
		return &traffic.Spec{
			Dim:  5,
			Seed: 1993,
			Arrivals: &traffic.Arrivals{
				Kind: "poisson", Count: 8, RatePerMS: 2,
				Op: traffic.Template{Kind: traffic.KindAllReduce, Bytes: 1024},
			},
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := traffic.Run(mk()); err != nil {
			b.Fatal(err)
		}
	}
}

// Chaos path: the same shared-network engine with a fault schedule
// installed — loss-tracked sends, the ack/retry protocol, and per-op
// delivery accounting all engaged. Guards the cost of the fault plumbing
// itself; the fault-free benchmarks above guard that its absence stays
// free.
func BenchmarkTrafficChaosFaulted5Cube(b *testing.B) {
	b.ReportAllocs()
	mk := func() *traffic.Spec {
		return &traffic.Spec{
			Dim:  5,
			Seed: 1993,
			Arrivals: &traffic.Arrivals{
				Kind: "poisson", Count: 12, RatePerMS: 4,
				Op: traffic.Template{Kind: traffic.KindFTMulticast, DestCount: 6, Bytes: 2048},
			},
			Faults: []traffic.FaultEvent{{Kind: traffic.FaultLink, Count: 2, Seed: 5}},
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := traffic.Run(mk()); err != nil {
			b.Fatal(err)
		}
	}
}

// Baseline for context: one ncube.Run on a mid-size 6-cube multicast.
func BenchmarkSimulateMulticast6Cube(b *testing.B) {
	b.ReportAllocs()
	cube := hypercube.New(6, hypercube.HighToLow)
	tree := hypercube.Multicast(cube, hypercube.UCube, 0, hypercube.RandomDests(cube, 13, 0, 32))
	params := ncube.NCube2(core.AllPort)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ncube.Run(params, tree, 4096)
	}
}
