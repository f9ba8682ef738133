package traffic

import (
	"fmt"
	"slices"

	"hypercube/internal/event"
	"hypercube/internal/stats"
	"hypercube/internal/vc"
)

// Grid is an offered-load experiment: rows of Poisson arrival rates
// crossed with the column axes algorithm × port × lanes × dead links,
// every cell one seeded Spec on its own network. The arrival trace —
// instants, sources, destination sets — depends only on the rate and
// the seed, so the cells of a row replay the identical workload and
// differ only in their axis values. Everything is derived from the grid
// (seeds included), so identical grids render identical tables.
type Grid struct {
	Dim        int
	Machine    string    // "" selects ncube2
	RatesPerMS []float64 // rows: offered load (ops per simulated millisecond)
	// The column axes, crossed in this order. An empty axis is a single
	// default point: w-sort, all-port, one lane, no fault axis.
	Algorithms []string
	Ports      []string
	Lanes      []int
	// FaultCounts makes every op a fault-tolerant multicast and kills k
	// random links (drop mode, from t=0) in the cells of count k > 0. The
	// draw is seeded Seed*31+k: it depends only on k, so every rate faces
	// the same broken links.
	FaultCounts []int
	Policy      string // lane policy of the multi-lane cells ("" selects round-robin)
	Ops         int    // arrivals per scenario (0 selects 64)
	DestCount   int    // destinations per multicast (0 selects half the cube)
	Bytes       int    // payload (0 selects 4096)
	Seed        int64
	// Workers fans the cells across the parallel event executor, each cell
	// its own conflict domain (a private session and calendar), so the
	// tables are byte-identical at every worker count. 0 or 1 runs the
	// cells serially.
	Workers int
}

// Cell is one column of a grid: a point on each column axis.
type Cell struct {
	Algorithm string
	Port      string
	Lanes     int
	Faults    int
}

// Family projects a grid's results onto three rate-indexed tables: one
// column per grid column, one value per cell.
type Family struct {
	Name    string // table file-name prefix
	Title   func(g *Grid) string
	Column  func(c Cell) string
	Metrics [3]Metric
}

// Metric is one table of a family.
type Metric struct {
	Name  string // file-name suffix after the family prefix
	Title string // appended to the family title
	Value func(*Result) float64
	// Relative divides each value by that of the same row's healthy twin
	// (the cell with no dead links), or reports 1 if the twin's is zero.
	Relative bool
}

// The table families the repository commits (results/<Name>_<metric>).
var (
	// Saturation is the latency-vs-load curve per multicast algorithm.
	Saturation = Family{
		Name: "traffic",
		Title: func(g *Grid) string {
			return fmt.Sprintf("Saturation: %d-cube, %d Poisson multicasts, m=%d, %d B",
				g.Dim, g.Ops, g.DestCount, g.Bytes)
		},
		Column: func(c Cell) string { return c.Algorithm },
		Metrics: [3]Metric{
			{Name: "mean", Title: "mean sojourn µs", Value: meanSojournUS},
			{Name: "p95", Title: "p95 sojourn µs", Value: func(r *Result) float64 {
				return float64(r.PercentileSojournNS(0.95)) / float64(event.Microsecond)
			}},
			{Name: "util", Title: "channel utilization", Value: channelUtilization},
		},
	}
	// Degradation crosses load with dead-link counts: delivered fraction,
	// mean-sojourn inflation over the healthy network, retries per op.
	Degradation = Family{
		Name: "chaos",
		Title: func(g *Grid) string {
			return fmt.Sprintf("Chaos: %d-cube, %d Poisson fault-tolerant multicasts, m=%d, %d B, k dead links",
				g.Dim, g.Ops, g.DestCount, g.Bytes)
		},
		Column: func(c Cell) string { return fmt.Sprintf("k=%d", c.Faults) },
		Metrics: [3]Metric{
			{Name: "delivered", Title: "delivered fraction", Value: deliveredFraction},
			{Name: "inflation", Title: "sojourn inflation vs healthy", Value: (*Result).AverageSojournNS, Relative: true},
			{Name: "retry", Title: "retries per op", Value: func(r *Result) float64 {
				retries := 0
				for _, op := range r.Ops {
					if op.Delivery != nil {
						retries += op.Delivery.Retries
					}
				}
				return float64(retries) / float64(len(r.Ops))
			}},
		},
	}
	// Spectrum crosses port models with lane counts on one trace: blocked
	// fraction, mean sojourn, and channel utilization.
	Spectrum = Family{
		Name: "lanes",
		Title: func(g *Grid) string {
			return fmt.Sprintf("Port×lane spectrum: %d-cube, %d Poisson %s multicasts, m=%d, %d B, %s",
				g.Dim, g.Ops, g.Algorithms[0], g.DestCount, g.Bytes, g.Policy)
		},
		Column: func(c Cell) string { return fmt.Sprintf("%s/%dL", c.Port, c.Lanes) },
		Metrics: [3]Metric{
			{Name: "blocked", Title: "blocked fraction", Value: func(r *Result) float64 { return r.Net.BlockedFraction }},
			{Name: "sojourn", Title: "mean sojourn µs", Value: meanSojournUS},
			{Name: "util", Title: "channel utilization", Value: channelUtilization},
		},
	}
)

func meanSojournUS(r *Result) float64 { return r.AverageSojournNS() / float64(event.Microsecond) }

func channelUtilization(r *Result) float64 { return r.Net.ChannelUtilization }

// deliveredFraction is the share of requested destinations reached; a
// fault-free cell carries no accounting, so everything arrived.
func deliveredFraction(r *Result) float64 {
	dests, got := 0, 0
	for _, op := range r.Ops {
		if d := op.Delivery; d != nil {
			dests += d.Dests
			got += d.Delivered
		}
	}
	if dests == 0 {
		return 1
	}
	return float64(got) / float64(dests)
}

// Tables runs the grid and projects it onto the family's tables.
func (g Grid) Tables(f *Family) ([]*stats.Table, error) {
	if err := g.normalize(); err != nil {
		return nil, err
	}
	cols := g.columns()
	listed := len(cols)
	labels := make([]string, listed)
	for ci, c := range cols {
		labels[ci] = f.Column(c)
		if slices.Contains(labels[:ci], labels[ci]) {
			return nil, fmt.Errorf("traffic: %s tables have two %q columns; vary only the axes the family labels", f.Name, labels[ci])
		}
	}
	// A relative metric divides by each column's healthy twin, run as an
	// unlisted column when the fault axis omits 0.
	twin := make([]int, listed)
	for ci := range twin {
		h := cols[ci]
		h.Faults = 0
		if twin[ci] = slices.Index(cols, h); twin[ci] < 0 {
			twin[ci] = len(cols)
			cols = append(cols, h)
		}
	}

	results, err := g.run(f, cols)
	if err != nil {
		return nil, err
	}
	title := f.Title(&g)
	tbs := make([]*stats.Table, len(f.Metrics))
	for mi, m := range f.Metrics {
		tbs[mi] = stats.NewTable(title+" — "+m.Title, "ops/ms", labels...)
		for ri, rate := range g.RatesPerMS {
			row := results[ri*len(cols) : (ri+1)*len(cols)]
			vals := make([]float64, listed)
			for ci := range vals {
				vals[ci] = m.Value(row[ci])
				if m.Relative {
					if base := m.Value(row[twin[ci]]); base > 0 {
						vals[ci] /= base
					} else {
						vals[ci] = 1
					}
				}
			}
			tbs[mi].Add(rate, vals...)
		}
	}
	return tbs, nil
}

// normalize checks what the cells' Spec canonicalization cannot see and
// fills in the defaults. The dimension is checked first: the destination
// default is sized from it.
func (g *Grid) normalize() error {
	if lim := PermissiveLimits(); g.Dim < 1 || g.Dim > lim.MaxDim {
		return fmt.Errorf("traffic: grid dim %d outside [1, %d]", g.Dim, lim.MaxDim)
	}
	if len(g.RatesPerMS) == 0 {
		return fmt.Errorf("traffic: grid needs rates")
	}
	if len(g.Algorithms) == 0 {
		g.Algorithms = []string{"w-sort"}
	}
	if len(g.Ports) == 0 {
		g.Ports = []string{"all-port"}
	}
	if len(g.Lanes) == 0 {
		g.Lanes = []int{1}
	}
	if l := slices.Min(g.Lanes); l < 1 {
		return fmt.Errorf("traffic: lane count %d below 1", l)
	}
	if g.Policy == "" {
		g.Policy = vc.RoundRobin.String()
	}
	if _, err := vc.ParseKind(g.Policy); err != nil {
		return fmt.Errorf("traffic: %v", err)
	}
	if g.Ops == 0 {
		g.Ops = 64
	}
	if g.Bytes == 0 {
		g.Bytes = 4096
	}
	if g.DestCount == 0 {
		g.DestCount = 1 << (g.Dim - 1)
	}
	return nil
}

// columns crosses the column axes in declaration order.
func (g *Grid) columns() []Cell {
	ks := g.FaultCounts
	if len(ks) == 0 {
		ks = []int{0}
	}
	var cols []Cell
	for _, a := range g.Algorithms {
		for _, p := range g.Ports {
			for _, l := range g.Lanes {
				for _, k := range ks {
					cols = append(cols, Cell{Algorithm: a, Port: p, Lanes: l, Faults: k})
				}
			}
		}
	}
	return cols
}

// spec is the scenario of one cell.
func (g *Grid) spec(rate float64, c Cell) *Spec {
	op := Template{Kind: KindMulticast, Algorithm: c.Algorithm, Bytes: g.Bytes, DestCount: g.DestCount}
	if len(g.FaultCounts) > 0 {
		op.Kind = KindFTMulticast
	}
	s := &Spec{
		Dim:      g.Dim,
		Machine:  g.Machine,
		Port:     c.Port,
		Seed:     g.Seed,
		Arrivals: &Arrivals{Kind: "poisson", Count: g.Ops, RatePerMS: rate, Op: op},
	}
	if c.Lanes > 1 {
		s.Lanes, s.VCPolicy = c.Lanes, g.Policy
	}
	if c.Faults != 0 {
		s.Faults = []FaultEvent{{Kind: FaultLink, Mode: FaultModeDrop, Count: c.Faults, Seed: g.Seed*31 + int64(c.Faults)}}
	}
	return s
}

// run executes every (rate, column) cell as one logical process of the
// parallel event executor (a single time-zero event runs the whole
// scenario) and returns the results row-major, in cell order.
func (g *Grid) run(f *Family, cols []Cell) ([]*Result, error) {
	nc := len(cols)
	results := make([]*Result, len(g.RatesPerMS)*nc)
	errs := make([]error, len(results))
	pq := event.NewParallel(g.Workers, 0)
	for i := range results {
		var q event.Queue
		q.At(0, func() { results[i], errs[i] = Run(g.spec(g.RatesPerMS[i/nc], cols[i%nc])) })
		pq.Add(&q)
	}
	if _, err := pq.Run(0, 0); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("traffic: %s cell %s at %g ops/ms: %w", f.Name, f.Column(cols[i%nc]), g.RatesPerMS[i/nc], err)
		}
	}
	return results, nil
}
