// The bench gate: pinned Go-benchmark measurements (ns/op, allocs/op,
// bytes/op) recorded next to the experiment headlines in every full
// BENCH_<date>.json, and a compare mode that fails when the current build
// regresses against the committed baseline beyond a statistical tolerance.
//
// The pinned subset deliberately mirrors bench_test.go benchmark bodies
// one-for-one (same names, same fidelities), so `go test -bench` output and
// gate documents are directly comparable. It is kept small — one tree/
// schedule workload, one machine-delay workload, one raw simulation — so
// the gate stays seconds-fast and stable on shared runners.
package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"hypercube"
	"hypercube/internal/core"
	"hypercube/internal/topology"
	"hypercube/internal/traffic"
	"hypercube/internal/workload"
)

// GateResult is one pinned benchmark measurement. AllocsPerOp is the
// regression signal the gate weights most: allocation counts are nearly
// deterministic for this codebase's fixed-seed workloads, while wall time
// varies with runner load.
type GateResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_op"`
	AllocsPerOp float64 `json:"allocs_op"`
	BytesPerOp  float64 `json:"bytes_op"`
}

// gateBenchmarks mirrors the like-named benchmarks of bench_test.go. Keep
// the bodies in sync — the names are the contract between `go test -bench`
// numbers and gate documents.
func gateBenchmarks() []struct {
	name string
	fn   func(b *testing.B)
} {
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"BenchmarkFig09Stepwise6Cube", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				workload.Stepwise(workload.StepwiseConfig{
					Dim: 6, Trials: 20, Seed: 1993, Port: core.AllPort,
					DestCounts: workload.DestCounts(6, 16),
				})
			}
		}},
		{"BenchmarkCoreBuildSchedule", benchCoreBuildSchedule},
		{"BenchmarkFig11AvgDelay5Cube", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				workload.Delay(workload.DelayConfig{
					Dim: 5, Trials: 10, Seed: 1993, Bytes: 4096,
					Stat: workload.AvgDelay, DestCounts: workload.DestCounts(5, 8),
				})
			}
		}},
		{"BenchmarkSimulateBroadcast10Cube", func(b *testing.B) {
			cube := hypercube.New(10, hypercube.HighToLow)
			tree := hypercube.Broadcast(cube, hypercube.WSort, 0)
			params := hypercube.NCube2Params(hypercube.AllPort)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hypercube.Simulate(params, tree, 4096)
			}
		}},
		{"BenchmarkTrafficSmallScenario5Cube", func(b *testing.B) {
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
		}},
		{"BenchmarkTrafficAllReduce5Cube", func(b *testing.B) {
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
		}},
		{"BenchmarkTrafficChaosFaulted5Cube", func(b *testing.B) {
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
		}},
		{"BenchmarkTrafficSaturation6Cube", func(b *testing.B) {
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
		}},
		{"BenchmarkTrafficMultiLane5Cube", func(b *testing.B) {
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
		}},
		{"BenchmarkParallelBroadcast12Cube/workers=1", func(b *testing.B) {
			benchParallelBroadcast(b, 1)
		}},
		{"BenchmarkParallelBroadcast12Cube/workers=8", func(b *testing.B) {
			benchParallelBroadcast(b, 8)
		}},
	}
}

// benchCoreBuildSchedule mirrors bench_test.go's BenchmarkCoreBuildSchedule:
// the Figure 9 tree mix built and scheduled all-port, inputs drawn up
// front, so the entry measures the core layer alone.
func benchCoreBuildSchedule(b *testing.B) {
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

// benchParallelBroadcast mirrors bench_test.go's
// BenchmarkParallelBroadcast12Cube at a pinned worker count (the test file
// uses runtime.NumCPU for its upper point; the gate pins 8 so baselines
// compare across hosts): eight independent 12-cube broadcasts through the
// parallel batch executor.
func benchParallelBroadcast(b *testing.B, workers int) {
	cube := hypercube.New(12, hypercube.HighToLow)
	var trees []*hypercube.Tree
	for k := 0; k < 8; k++ {
		trees = append(trees, hypercube.Broadcast(cube, hypercube.WSort, hypercube.NodeID(k*512)))
	}
	p := hypercube.NCube2Params(hypercube.AllPort)
	p.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hypercube.SimulateBatch(p, trees, 4096)
	}
}

// gateSpeedup asserts the parallel executor's scaling contract from the
// gate's own measurements: with >= 4 CPUs available, the 8-worker batch
// must run >= 1.5x faster than the 1-worker batch; on smaller hosts the
// speedup is physically unattainable, so the gate only rejects a
// significant slowdown (parallel overhead) and says why the scaling
// assertion was skipped.
func gateSpeedup(cur []GateResult) error {
	var w1, w8 float64
	for _, c := range cur {
		switch c.Name {
		case "BenchmarkParallelBroadcast12Cube/workers=1":
			w1 = c.NsPerOp
		case "BenchmarkParallelBroadcast12Cube/workers=8":
			w8 = c.NsPerOp
		}
	}
	if w1 == 0 || w8 == 0 {
		return fmt.Errorf("gate: parallel broadcast measurements missing")
	}
	speedup := w1 / w8
	cpus := runtime.GOMAXPROCS(0)
	if cpus >= 4 {
		fmt.Printf("gate parallel speedup: %.2fx at 8 workers on %d CPUs (require >= 1.50x)\n", speedup, cpus)
		if speedup < 1.5 {
			return fmt.Errorf("gate: parallel broadcast speedup %.2fx at 8 workers below required 1.5x on %d CPUs", speedup, cpus)
		}
		return nil
	}
	fmt.Printf("gate parallel speedup: %.2fx at 8 workers on %d CPU(s) — scaling assertion skipped (needs >= 4 CPUs), checking for slowdown only\n", speedup, cpus)
	if speedup < 0.65 {
		return fmt.Errorf("gate: parallel executor is %.2fx slower than sequential on %d CPU(s) — overhead regression", 1/speedup, cpus)
	}
	return nil
}

// runGate measures every pinned benchmark once via testing.Benchmark
// (default 1s target per benchmark) and returns the results in definition
// order.
func runGate() []GateResult {
	var out []GateResult
	for _, g := range gateBenchmarks() {
		r := testing.Benchmark(g.fn)
		out = append(out, GateResult{
			Name:        g.name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
		})
		fmt.Printf("gate %-34s %12.0f ns/op %10.0f allocs/op\n",
			g.name, out[len(out)-1].NsPerOp, out[len(out)-1].AllocsPerOp)
	}
	return out
}

// latestBaseline returns the lexicographically last results/BENCH_*.json
// that carries a gate section — dated names sort chronologically, so this
// is the most recently committed baseline.
func latestBaseline(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	for i := len(paths) - 1; i >= 0; i-- {
		doc, err := readBenchDoc(paths[i])
		if err != nil {
			return "", fmt.Errorf("%s: %v", paths[i], err)
		}
		if len(doc.Gate) > 0 {
			return paths[i], nil
		}
	}
	return "", fmt.Errorf("no BENCH_*.json with a gate section under %s", dir)
}

// gateCompare runs the pinned benchmarks and compares them against the
// baseline document with the given relative tolerances. It prints a
// benchstat-style before/after table and returns an error describing every
// regression, or nil when the gate passes.
//
// Bytes per op are gated with the allocs tolerance. Both get a small
// absolute slack (a handful of allocs, 64 KiB) so runtime-internal jitter
// on a nearly-allocation-free benchmark — a pooled buffer the GC dropped —
// cannot flip the gate. Baselines that predate B/op recording (bytes_op 0)
// gate allocs and ns only.
func gateCompare(baselinePath string, tolNs, tolAllocs float64) error {
	doc, err := readBenchDoc(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline %s: %v", baselinePath, err)
	}
	if len(doc.Gate) == 0 {
		return fmt.Errorf("baseline %s has no gate section (refresh it with a full `bench` run)", baselinePath)
	}
	base := make(map[string]GateResult, len(doc.Gate))
	for _, g := range doc.Gate {
		base[g.Name] = g
	}
	cur := runGate()

	const allocSlack, bytesSlack = 8.0, 64 << 10
	fmt.Printf("\ngate vs %s (tolerance: ns %+.0f%%, allocs and B/op %+.0f%%)\n", baselinePath, tolNs*100, tolAllocs*100)
	fmt.Printf("%-34s %14s %14s %8s %14s %14s %8s %12s %12s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta", "old B/op", "new B/op", "delta")
	var failures []string
	for _, c := range cur {
		b, ok := base[c.Name]
		if !ok {
			fmt.Printf("%-34s %14s %14.0f %8s %14s %14.0f %8s %12s %12.0f %8s\n",
				c.Name, "-", c.NsPerOp, "new", "-", c.AllocsPerOp, "new", "-", c.BytesPerOp, "new")
			continue
		}
		fmt.Printf("%-34s %14.0f %14.0f %7.1f%% %14.0f %14.0f %7.1f%% %12.0f %12.0f %7.1f%%\n",
			c.Name, b.NsPerOp, c.NsPerOp, pct(b.NsPerOp, c.NsPerOp),
			b.AllocsPerOp, c.AllocsPerOp, pct(b.AllocsPerOp, c.AllocsPerOp),
			b.BytesPerOp, c.BytesPerOp, pct(b.BytesPerOp, c.BytesPerOp))
		if c.NsPerOp > b.NsPerOp*(1+tolNs) {
			failures = append(failures, fmt.Sprintf("%s: ns/op %.0f exceeds baseline %.0f by more than %.0f%%",
				c.Name, c.NsPerOp, b.NsPerOp, tolNs*100))
		}
		if c.AllocsPerOp > b.AllocsPerOp*(1+tolAllocs)+allocSlack {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f exceeds baseline %.0f by more than %.0f%%",
				c.Name, c.AllocsPerOp, b.AllocsPerOp, tolAllocs*100))
		}
		if b.BytesPerOp > 0 && c.BytesPerOp > b.BytesPerOp*(1+tolAllocs)+bytesSlack {
			failures = append(failures, fmt.Sprintf("%s: B/op %.0f exceeds baseline %.0f by more than %.0f%%",
				c.Name, c.BytesPerOp, b.BytesPerOp, tolAllocs*100))
		}
	}
	if err := gateSpeedup(cur); err != nil {
		failures = append(failures, err.Error())
	}
	if len(failures) > 0 {
		msg := "performance regression:"
		for _, f := range failures {
			msg += "\n  " + f
		}
		return fmt.Errorf("%s", msg)
	}
	fmt.Println("gate passed")
	return nil
}

// pct renders the relative change from old to new as a percentage.
func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}
