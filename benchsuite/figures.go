package main

// The figures workload is the paper's evaluation as a batch: the Figure
// 9/10 stepwise tables and the Figure 11–14 delay tables at the fixture
// fidelity of internal/workload/testdata, rendered through
// workload.Stepwise and workload.Delay. Tree construction and step
// scheduling (core) dominate it, and the machine runs (ncube, wormhole,
// event) are contention-free; it never reaches server, simcache or
// traffic.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/metrics"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/workload"
)

// paperSeed is the seed of the committed figure tables.
const paperSeed = 1993

// figuresLimit is the latency limit of one figure point.
const figuresLimit = 5 * time.Millisecond

// paperAlgorithms is the series every figure plots (the configs' default).
var paperAlgorithms = []core.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort}

// paperBytes is the message length of the delay figures.
const paperBytes = 4096

// figure is one table of the batch at fixture fidelity: a stepwise table
// (Figures 9/10) or a delay table of the given statistic (Figures 11–14),
// all-port, with the paper's four algorithms.
type figure struct {
	name, golden string
	dim, trials  int
	points       []int
	stepwise     bool
	stat         workload.DelayStat
}

// figureSet mirrors the fixture configurations of the committed goldens.
func figureSet() []figure {
	return []figure{
		{name: "fig09", golden: "fig09_stepwise_6cube.golden", dim: 6, trials: 5, points: workload.DestCounts(6, 8), stepwise: true},
		{name: "fig10", golden: "fig10_stepwise_10cube.golden", dim: 10, trials: 2, points: workload.DestCounts(10, 4), stepwise: true},
		{name: "fig11", golden: "fig11_avg_delay_5cube.golden", dim: 5, trials: 3, points: workload.DestCounts(5, 4), stat: workload.AvgDelay},
		{name: "fig12", golden: "fig12_max_delay_5cube.golden", dim: 5, trials: 3, points: workload.DestCounts(5, 4), stat: workload.MaxDelay},
		{name: "fig13", golden: "fig13_avg_delay_10cube.golden", dim: 10, trials: 1, points: workload.DestCounts(10, 3), stat: workload.AvgDelay},
		{name: "fig14", golden: "fig14_max_delay_10cube.golden", dim: 10, trials: 1, points: workload.DestCounts(10, 3), stat: workload.MaxDelay},
	}
}

// treesPerPoint is the number of trees one point evaluates: one per
// algorithm per trial.
func (f figure) treesPerPoint() int { return f.trials * len(paperAlgorithms) }

// render draws the table at seed over dests (nil: every point).
func (f figure) render(seed int64, dests []int) string {
	if dests == nil {
		dests = f.points
	}
	if f.stepwise {
		return workload.Stepwise(workload.StepwiseConfig{
			Dim: f.dim, Trials: f.trials, Seed: seed, Port: core.AllPort, DestCounts: dests,
		}).Render()
	}
	return workload.Delay(workload.DelayConfig{
		Dim: f.dim, Trials: f.trials, Seed: seed, Bytes: paperBytes, Stat: f.stat, DestCounts: dests,
	}).Render()
}

// tableRef is a rendered reference table, with its rows split into
// fields so a one-point render can be checked against its row.
type tableRef struct {
	text   string
	title  string
	header []string
	rows   map[string][]string // keyed by the x value as rendered
}

func parseTable(text string) tableRef {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	ref := tableRef{text: text, rows: make(map[string][]string)}
	if len(lines) > 0 {
		ref.title = lines[0]
	}
	if len(lines) > 1 {
		ref.header = strings.Fields(lines[1])
	}
	for _, l := range lines[min(2, len(lines)):] {
		if fs := strings.Fields(l); len(fs) > 0 {
			ref.rows[fs[0]] = fs
		}
	}
	return ref
}

// matchesPoint reports whether a one-point render of x equals the
// reference table's title, column header, and row for x, field by field
// (column widths differ between a one-row and a full table).
func (r tableRef) matchesPoint(x int, got string) bool {
	g := parseTable(got)
	want, ok := r.rows[fmt.Sprint(x)]
	return ok && g.title == r.title && len(g.rows) == 1 &&
		equalFields(g.header, r.header) && equalFields(g.rows[fmt.Sprint(x)], want)
}

func equalFields(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// figurePoint is one unit of the light and heavy phases.
type figurePoint struct {
	fig   int
	dests int
}

// figuresState is the workload's set-up product.
type figuresState struct {
	figs   []figure
	refs   []tableRef // at the run seed
	points []figurePoint
	failed int // trees of tables that failed their set-up check
}

// setupFigures renders every table at the paper seed and checks it byte
// for byte against the committed golden, then renders the tables at the
// run seed as the reference for the measured phases.
func setupFigures(root string, seed int64) (*figuresState, error) {
	st := &figuresState{figs: figureSet()}
	for i, f := range st.figs {
		want, err := os.ReadFile(filepath.Join(root, "internal", "workload", "testdata", f.golden))
		if err != nil {
			return nil, fmt.Errorf("reading reference table: %w", err)
		}
		trees := len(f.points) * f.treesPerPoint()
		if got := f.render(paperSeed, nil); got != string(want) {
			fmt.Fprintf(os.Stderr, "benchsuite: %s differs from its committed golden %s\n", f.name, f.golden)
			st.failed += trees
		}
		st.refs = append(st.refs, parseTable(f.render(seed, nil)))
		for _, m := range f.points {
			st.points = append(st.points, figurePoint{i, m})
		}
	}
	return st, nil
}

// runPoint renders one point and checks it against the reference row.
func (st *figuresState) runPoint(seed int64, p figurePoint) Unit {
	f := st.figs[p.fig]
	t0 := time.Now()
	got := f.render(seed, []int{p.dests})
	return Unit{Latency: time.Since(t0), Ops: f.treesPerPoint(), OK: st.refs[p.fig].matchesPoint(p.dests, got)}
}

func runFigures(cfg config) (*outcome, error) {
	var st *figuresState
	setup, err := timedSetup(3, func(rep int) error {
		s, err := setupFigures(cfg.root, cfg.seed)
		if err != nil {
			return err
		}
		if st == nil {
			st = s
			return nil
		}
		// Later repetitions must reproduce the first byte for byte.
		for i := range s.refs {
			if s.refs[i].text != st.refs[i].text {
				st.failed += len(st.figs[i].points) * st.figs[i].treesPerPoint()
			}
		}
		st.failed += s.failed
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceFigures(cfg, st)
	}
	unit := func(i int) Unit { return st.runPoint(cfg.seed, st.points[interleave(i, len(st.points))]) }
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	a0 := allocKiB()
	light := closedLoop(1, len(st.points), half, unit)
	rss := peakRSSMB()
	heavy := closedLoop(cfg.workers, len(st.points), half, unit)
	a1 := allocKiB()

	out := &outcome{
		attempted: light.Attempted() + heavy.Attempted(),
		failed:    light.Failed() + heavy.Failed() + st.failed,
		metrics:   map[string]float64{"setup_s": setup, "ops_per_s": heavy.OpsPerSecond(), "peak_rss_mb": rss},
		stamp: map[string]any{
			"light_units": len(light.Units), "heavy_units": len(heavy.Units),
			"slo_limit_ms": figuresLimit.Seconds() * 1e3,
		},
	}
	out.metrics["alloc_kb_per_op"] = (a1 - a0) / float64(max(out.attempted, 1))
	latencyMetrics(out, light, heavy, figuresLimit)
	return out, nil
}

// figureCounts are the deterministic per-pass counts of the replay.
type figureCounts struct {
	steps, acquires, blocks, peakQueue int64
	allocsPerTree                      float64
}

// traceFigures alternates untraced and traced passes. A pass renders the
// six tables (one workload span each) and then replays their trees call
// by call — workload generator, core.Build, core.NewSchedule or
// ncube.RunInstrumented — so each layer's share is a span of its own.
func traceFigures(cfg config, st *figuresState) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, failed: st.failed}
	tableNS := make(map[string]int64)
	overhead := alternatePasses(cfg.seconds, out, func(t *Tracer, round int) {
		figuresPass(cfg.seed, st, t, int64(round+1), tableNS, out)
	})
	for _, f := range st.figs {
		out.metrics["workload.table_ms."+f.name] = float64(tableNS[f.name]) / 1e6 / float64(out.passes)
	}
	m := out.metrics
	m["core.build_us"] = meanDur(out.spans, "core.build") / 1e3
	m["core.schedule_us"] = meanDur(out.spans, "core.schedule") / 1e3
	m["ncube.run_us"] = meanDur(out.spans, "ncube.run") / 1e3

	c := countFigures(cfg.seed, st)
	var runNS int64
	for _, s := range out.spans {
		if s.Name == "ncube.run" {
			runNS += s.Dur()
		}
	}
	m["core.allocs_per_tree"] = c.allocsPerTree
	m["event.steps"] = float64(c.steps)
	if c.steps > 0 {
		m["event.ns_per_step"] = float64(runNS) / float64(out.passes) / float64(c.steps)
	}
	m["wormhole.acquires"] = float64(c.acquires)
	m["wormhole.header_blocks"] = float64(c.blocks)
	if c.acquires > 0 {
		m["wormhole.blocked_ratio"] = float64(c.blocks) / float64(c.acquires)
	}
	m["wormhole.peak_queue"] = float64(c.peakQueue)
	m["trace.overhead_ms"] = overhead
	out.stamp = map[string]any{"traced_passes": out.passes}
	return out, nil
}

// figuresPass renders the tables at the run seed, checking each against
// the set-up reference, and replays their trees.
func figuresPass(seed int64, st *figuresState, tr *Tracer, trace int64, tableNS map[string]int64, out *outcome) {
	root := tr.Begin("bench", "figures.pass", 0, trace)
	for i, f := range st.figs {
		h := tr.Begin("workload", "workload.table", root.ID(), trace)
		got := f.render(seed, nil)
		if d := h.End(); tr != nil {
			tableNS[f.name] += d.Nanoseconds()
		}
		trees := len(f.points) * f.treesPerPoint()
		out.attempted += trees
		if got != st.refs[i].text {
			out.failed += trees
		}
	}
	for _, f := range st.figs {
		replay(seed, f, tr, root.ID(), trace, ncube.Instrumentation{})
	}
	root.End()
}

// replay evaluates a figure's trees exactly as the table does, one
// public call at a time: the same seeded generator per point, then
// core.Build and core.NewSchedule (stepwise) or ncube.RunInstrumented
// (delay) per algorithm.
func replay(seed int64, f figure, tr *Tracer, parent, trace int64, ins ncube.Instrumentation) {
	cube := topology.New(f.dim, topology.HighToLow)
	params := ncube.NCube2(core.AllPort)
	for _, m := range f.points {
		ph := tr.Begin("workload", "workload.point", parent, trace)
		gen := workload.NewGenerator(cube, seed+int64(m))
		for range f.trials {
			src := gen.Source()
			dests := gen.Dests(src, m)
			for _, a := range paperAlgorithms {
				b := tr.Begin("core", "core.build", ph.ID(), trace)
				t := core.Build(cube, a, src, dests)
				b.End()
				if f.stepwise {
					s := tr.Begin("core", "core.schedule", ph.ID(), trace)
					core.NewSchedule(t, core.AllPort)
					s.End()
					continue
				}
				r := tr.Begin("ncube", "ncube.run", ph.ID(), trace)
				ncube.RunInstrumented(params, t, paperBytes, ins)
				r.End()
			}
		}
		ph.End()
	}
}

// countFigures measures one replay's deterministic counts: kernel events
// and wormhole channel activity of the delay figures, and the heap
// allocations of building and scheduling the stepwise figures' trees.
func countFigures(seed int64, st *figuresState) figureCounts {
	reg := metrics.New()
	q := &queueTracer{waiting: make(map[topology.Arc]int)}
	var c figureCounts
	var ms0, ms1 runtime.MemStats
	trees := 0
	for _, f := range st.figs {
		if f.stepwise {
			runtime.ReadMemStats(&ms0)
			replay(seed, f, nil, 0, 0, ncube.Instrumentation{})
			runtime.ReadMemStats(&ms1)
			c.allocsPerTree += float64(ms1.Mallocs - ms0.Mallocs)
			trees += len(f.points) * f.treesPerPoint()
			continue
		}
		replay(seed, f, nil, 0, 0, ncube.Instrumentation{Metrics: reg, Tracer: q})
	}
	c.allocsPerTree /= float64(max(trees, 1))
	c.steps = reg.Counter("event_steps").Value()
	c.acquires = reg.Counter("net_channel_acquires").Value()
	c.blocks = reg.Counter("net_header_blocks").Value()
	c.peakQueue = int64(q.peak)
	return c
}

// queueTracer tracks the deepest header queue on any channel. Channels
// are granted first-come first-served, so an acquire on an arc with
// waiters is the queue head's.
type queueTracer struct {
	waiting map[topology.Arc]int
	peak    int
}

func (q *queueTracer) ChannelAcquired(arc topology.Arc, _, _ topology.NodeID, _ event.Time) {
	if q.waiting[arc] > 0 {
		q.waiting[arc]--
	}
}

func (q *queueTracer) ChannelReleased(topology.Arc, event.Time) {}

func (q *queueTracer) HeaderBlocked(arc topology.Arc, _, _ topology.NodeID, _ event.Time) {
	q.waiting[arc]++
	q.peak = max(q.peak, q.waiting[arc])
}
