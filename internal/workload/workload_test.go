package workload

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hypercube/internal/bits"
	"hypercube/internal/core"
	"hypercube/internal/topology"
)

func TestDestsProperties(t *testing.T) {
	cube := topology.New(6, topology.HighToLow)
	g := NewGenerator(cube, 1)
	for trial := 0; trial < 200; trial++ {
		src := g.Source()
		m := 1 + trial%63
		ds := g.Dests(src, m)
		if len(ds) != m {
			t.Fatalf("got %d destinations, want %d", len(ds), m)
		}
		seen := map[topology.NodeID]bool{}
		for _, d := range ds {
			if d == src {
				t.Fatal("source drawn as destination")
			}
			if seen[d] {
				t.Fatal("duplicate destination")
			}
			if !cube.Contains(d) {
				t.Fatal("destination outside cube")
			}
			seen[d] = true
		}
	}
}

func TestDestsFullSet(t *testing.T) {
	cube := topology.New(4, topology.HighToLow)
	g := NewGenerator(cube, 2)
	ds := g.Dests(5, 15)
	if len(ds) != 15 {
		t.Fatalf("full draw = %d", len(ds))
	}
}

func TestDestsPanicsOnTooMany(t *testing.T) {
	cube := topology.New(3, topology.HighToLow)
	g := NewGenerator(cube, 3)
	defer func() {
		if recover() == nil {
			t.Error("overdraw did not panic")
		}
	}()
	g.Dests(0, 8)
}

func TestGeneratorDeterminism(t *testing.T) {
	cube := topology.New(6, topology.HighToLow)
	a := NewGenerator(cube, 42)
	b := NewGenerator(cube, 42)
	for i := 0; i < 20; i++ {
		sa, sb := a.Source(), b.Source()
		if sa != sb {
			t.Fatal("sources diverge")
		}
		if !reflect.DeepEqual(a.Dests(sa, 10), b.Dests(sb, 10)) {
			t.Fatal("destination draws diverge")
		}
	}
}

func TestDestCountsSmallCube(t *testing.T) {
	got := DestCounts(4, 100)
	if len(got) != 15 || got[0] != 1 || got[14] != 15 {
		t.Errorf("DestCounts(4) = %v", got)
	}
}

func TestDestCountsLargeCube(t *testing.T) {
	got := DestCounts(10, 32)
	if got[0] != 1 || got[len(got)-1] != 1023 {
		t.Errorf("endpoints wrong: %v", got)
	}
	if len(got) < 28 || len(got) > 36 {
		t.Errorf("point count = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("not strictly increasing: %v", got)
		}
	}
}

func TestDestCountsDegenerateTarget(t *testing.T) {
	got := DestCounts(10, 1)
	if got[0] != 1 || got[len(got)-1] != 1023 {
		t.Errorf("degenerate target endpoints: %v", got)
	}
}

// A small stepwise run has the paper's qualitative shape: U-cube equals the
// one-port staircase while the port-aware algorithms need at most as many
// steps at every point.
func TestStepwiseShapeSmall(t *testing.T) {
	tb := Stepwise(StepwiseConfig{
		Dim:    5,
		Trials: 30,
		Seed:   7,
		Port:   core.AllPort,
	})
	uc := tb.Column("u-cube")
	ws := tb.Column("w-sort")
	cb := tb.Column("combine")
	if len(uc) != 31 {
		t.Fatalf("rows = %d", len(uc))
	}
	for i, m := 0, 1; i < len(uc); i, m = i+1, m+1 {
		stair := float64(bits.CeilLog2(m + 1))
		if uc[i] != stair {
			t.Errorf("m=%d: u-cube avg = %v, want staircase %v", m, uc[i], stair)
		}
		if ws[i] > uc[i]+1e-9 {
			t.Errorf("m=%d: w-sort %v worse than u-cube %v", m, ws[i], uc[i])
		}
		if cb[i] > uc[i]+1e-9 {
			t.Errorf("m=%d: combine %v worse than u-cube %v", m, cb[i], uc[i])
		}
	}
	// Strict improvement somewhere in the mid-range.
	improved := false
	for i := range uc {
		if ws[i] < uc[i]-0.25 {
			improved = true
		}
	}
	if !improved {
		t.Error("w-sort never clearly beats u-cube")
	}
}

// Delay experiment smoke test: sane monotonic-ish output, all algorithms
// beat separate addressing never slower than... (just structural checks
// plus the headline comparison).
func TestDelayShapeSmall(t *testing.T) {
	tb := Delay(DelayConfig{
		Dim:        4,
		Trials:     10,
		Seed:       11,
		Bytes:      1024,
		Stat:       MaxDelay,
		DestCounts: []int{3, 7, 11, 15},
	})
	uc := tb.Column("u-cube")
	ws := tb.Column("w-sort")
	for i := range uc {
		if uc[i] <= 0 || ws[i] <= 0 {
			t.Fatalf("nonpositive delay at row %d", i)
		}
		if ws[i] > uc[i]+1e-6 {
			t.Errorf("row %d: w-sort %v slower than u-cube %v", i, ws[i], uc[i])
		}
	}
}

// Size sweep: delay grows linearly in message size (the pipelining term),
// with identical trees across sizes, and W-sort stays at or below U-cube
// at every size.
func TestSizeSweepShape(t *testing.T) {
	tb := SizeSweep(SizeSweepConfig{
		Dim:    5,
		Dests:  12,
		Trials: 10,
		Seed:   21,
		Sizes:  []int{256, 1024, 4096, 16384},
	})
	uc := tb.Column("u-cube")
	ws := tb.Column("w-sort")
	for i := range uc {
		if ws[i] > uc[i]+1e-6 {
			t.Errorf("row %d: w-sort %v slower than u-cube %v", i, ws[i], uc[i])
		}
		if i > 0 && uc[i] <= uc[i-1] {
			t.Errorf("u-cube delay not increasing with size: %v", uc)
		}
	}
	// Linearity: the delay increase from 4096 to 16384 bytes should be
	// roughly 4x the increase from 1024 to 4096 (both are 3x-size steps
	// of the pipeline term times tree depth).
	d1 := ws[2] - ws[1]
	d2 := ws[3] - ws[2]
	if d2 < 3*d1 || d2 > 5*d1 {
		t.Errorf("size scaling nonlinear: d1=%v d2=%v", d1, d2)
	}
}

// The average-step statistic is bounded by the maximum-step statistic at
// every point, and both share the U-cube dominance ordering.
func TestStepwiseAvgStat(t *testing.T) {
	base := StepwiseConfig{Dim: 5, Trials: 20, Seed: 3, Port: core.AllPort}
	maxCfg := base
	maxCfg.Stat = MaxSteps
	avgCfg := base
	avgCfg.Stat = AvgSteps
	maxTb := Stepwise(maxCfg)
	avgTb := Stepwise(avgCfg)
	for _, col := range []string{"u-cube", "w-sort"} {
		mx := maxTb.Column(col)
		av := avgTb.Column(col)
		for i := range mx {
			if av[i] > mx[i]+1e-9 {
				t.Fatalf("%s row %d: avg %v exceeds max %v", col, i, av[i], mx[i])
			}
		}
	}
	if MaxSteps.String() != "max" || AvgSteps.String() != "avg" {
		t.Error("StepStat names wrong")
	}
}

// Concurrency sweep: interference grows with load, and W-sort stays at or
// below U-cube at every level.
func TestConcurrentShape(t *testing.T) {
	tb := Concurrent(ConcurrentConfig{
		Dim:    6,
		Dests:  12,
		Trials: 8,
		Seed:   13,
		Bytes:  2048,
		Counts: []int{1, 4, 8},
	})
	uc := tb.Column("u-cube")
	ws := tb.Column("w-sort")
	for i := range uc {
		if ws[i] > uc[i]+1e-6 {
			t.Errorf("row %d: w-sort %v slower than u-cube %v", i, ws[i], uc[i])
		}
		if i > 0 && uc[i] < uc[i-1] {
			t.Errorf("u-cube makespan fell with load: %v", uc)
		}
	}
	if ws[len(ws)-1] <= ws[0] {
		t.Error("no interference visible at 8 concurrent multicasts")
	}
}

// The stepwise experiment is reproducible for a fixed seed.
func TestStepwiseDeterministic(t *testing.T) {
	cfg := StepwiseConfig{Dim: 4, Trials: 10, Seed: 5, Port: core.AllPort}
	a := Stepwise(cfg)
	b := Stepwise(cfg)
	if a.Render() != b.Render() {
		t.Error("stepwise runs diverge for equal seeds")
	}
}

// Parallel execution produces bit-identical tables to serial execution:
// points are seeded independently, so worker scheduling cannot leak in.
func TestParallelMatchesSerial(t *testing.T) {
	sw := StepwiseConfig{Dim: 6, Trials: 15, Seed: 9, Port: core.AllPort}
	serial := sw
	serial.Workers = 1
	parallel := sw
	parallel.Workers = 8
	if Stepwise(serial).Render() != Stepwise(parallel).Render() {
		t.Error("parallel stepwise differs from serial")
	}

	dc := DelayConfig{Dim: 4, Trials: 6, Seed: 9, Bytes: 512, Stat: MaxDelay}
	dSerial := dc
	dSerial.Workers = 1
	dParallel := dc
	dParallel.Workers = 8
	if Delay(dSerial).Render() != Delay(dParallel).Render() {
		t.Error("parallel delay differs from serial")
	}

	sc := SizeSweepConfig{Dim: 4, Dests: 6, Trials: 5, Seed: 9, Sizes: []int{128, 1024, 8192}}
	sSerial := sc
	sSerial.Workers = 1
	sParallel := sc
	sParallel.Workers = 4
	if SizeSweep(sSerial).Render() != SizeSweep(sParallel).Render() {
		t.Error("parallel size sweep differs from serial")
	}

	cc := ConcurrentConfig{Dim: 5, Dests: 8, Trials: 5, Seed: 9, Bytes: 512, Counts: []int{1, 2, 4}}
	cSerial := cc
	cSerial.Workers = 1
	cParallel := cc
	cParallel.Workers = 3
	if Concurrent(cSerial).Render() != Concurrent(cParallel).Render() {
		t.Error("parallel concurrent sweep differs from serial")
	}
}

// DrawDests must reproduce NewGenerator(cube, seed).Dests(src, m) value
// for value, and both the draw on a math/rand source: every dimension
// 1..12 and every m, each draw re-seeding the pooled source the previous
// draw used with an unrelated seed.
func TestDrawDestsMatchesGenerator(t *testing.T) {
	for dim := 1; dim <= 12; dim++ {
		cube := topology.New(dim, topology.HighToLow)
		n := cube.Nodes()
		for m := 0; m <= n-1; m++ {
			seed := 1993*int64(dim) + int64(m)
			if m%2 == 1 {
				seed = -seed
			}
			src := topology.NodeID((int(seed)%n + n) % n)
			want := drawDests(rand.New(rand.NewSource(seed)), cube, src, m)
			if gen := NewGenerator(cube, seed).Dests(src, m); !slices.Equal(gen, want) {
				t.Fatalf("dim=%d m=%d seed=%d: generator %v, math/rand %v", dim, m, seed, gen, want)
			}
			if got := DrawDests(cube, seed, src, m); !slices.Equal(got, want) {
				t.Fatalf("dim=%d m=%d seed=%d: DrawDests %v, math/rand %v", dim, m, seed, got, want)
			}
		}
	}
}

// Concurrent draws share the source pool: each must still see exactly
// the stream of its own seed.
func TestDrawDestsConcurrent(t *testing.T) {
	cube := topology.New(8, topology.HighToLow)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				seed := int64(g*1000 + i)
				want := NewGenerator(cube, seed).Dests(3, 40)
				if got := DrawDests(cube, seed, 3, 40); !slices.Equal(got, want) {
					t.Errorf("goroutine %d seed %d: DrawDests %v, generator %v", g, seed, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
