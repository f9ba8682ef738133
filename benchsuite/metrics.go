package main

import (
	"time"

	"hypercube/internal/stats"
)

// MetricDef names one reported metric and its unit.
type MetricDef struct {
	Name string
	Unit string
}

// EndToEnd lists the metrics of an untraced run, in print order. Every
// workload reports all of them; see README.md for what "heavy" and an
// operation mean in each workload. The light and heavy p50 and p99
// latencies are stamped on every run but not listed: on a shared 2-CPU
// host their run-to-run spread in the serve workload exceeds any bound a
// regression gate could use.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
	{"heavy_slo_ratio", "ratio"},
}

// Workload families and endpoints that per-layer metric names expand over.
var (
	trafficFamilies = []string{"storm", "storm_lanes4", "oneport", "data", "chaos"}
	endpoints       = []string{"simulate", "collective", "tree", "traffic"}
	figureNames     = []string{"fig09", "fig10", "fig11", "fig12", "fig13", "fig14"}
	// traceLayers are the layers the benchmark records spans for: its own
	// pass and phase roots (bench), the HTTP client and loopback transport
	// (client), and every program layer it calls into directly.
	traceLayers = []string{"bench", "client", "server", "traffic", "workload", "core", "ncube"}
)

// PerLayer lists the metrics of a traced run. A traced run of any
// workload prints all of them; a layer the workload never reaches reads 0.
func PerLayer() []MetricDef {
	defs := []MetricDef{
		{"core.build_us", "us"},
		{"core.schedule_us", "us"},
		{"core.allocs_per_tree", "count"},
	}
	for _, f := range figureNames {
		defs = append(defs, MetricDef{"workload.table_ms." + f, "ms"})
	}
	defs = append(defs,
		MetricDef{"ncube.run_us", "us"},
		MetricDef{"event.steps", "count"},
		MetricDef{"event.ns_per_step", "ns"},
		MetricDef{"wormhole.acquires", "count"},
		MetricDef{"wormhole.header_blocks", "count"},
		MetricDef{"wormhole.blocked_ratio", "ratio"},
		MetricDef{"wormhole.peak_queue", "count"},
	)
	for _, f := range trafficFamilies {
		defs = append(defs, MetricDef{"traffic.canonicalize_us." + f, "us"})
	}
	for _, f := range trafficFamilies {
		defs = append(defs, MetricDef{"traffic.run_ms." + f, "ms"})
	}
	for _, f := range trafficFamilies {
		defs = append(defs, MetricDef{"traffic.alloc_kb." + f, "KiB"})
	}
	defs = append(defs, MetricDef{"traffic.ns_per_unicast", "ns"})
	for _, e := range endpoints {
		for _, c := range []string{"hit", "miss"} {
			defs = append(defs, MetricDef{"server.handler_us." + e + "." + c, "us"})
		}
	}
	defs = append(defs,
		MetricDef{"server.transport_us", "us"},
		MetricDef{"server.queue_depth_max", "count"},
		MetricDef{"server.jobs_shed", "count"},
		MetricDef{"server.sims_per_miss", "ratio"},
		MetricDef{"server.batch_points_mean", "count"},
		MetricDef{"simcache.hit_ratio", "ratio"},
		MetricDef{"simcache.dedup_joins", "count"},
		MetricDef{"client.lateness_p99_us", "us"},
	)
	for _, l := range traceLayers {
		defs = append(defs, MetricDef{"self_ms." + l, "ms"})
	}
	return append(defs, MetricDef{"trace.overhead_ms", "ms"})
}

// interleave maps unit i of a phase to an item of an n-item list, visited
// with a stride coprime to n. Neighbouring units, which the heavy phase
// runs at the same time, then come from distant parts of the list, so the
// memory-heavy items (data scenarios, 10-cube points) rarely overlap.
func interleave(i, n int) int {
	step := n/3 + 1
	for gcd(step, n) != 1 {
		step++
	}
	return i * step % n
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Unit is one timed unit of work in a phase: a figure point, a traffic
// scenario, or an HTTP request.
type Unit struct {
	Seq     int           // position in the phase's sequence
	Done    time.Duration // completion, from the start of the phase
	Latency time.Duration
	Ops     int  // operations the unit carried
	OK      bool // outputs matched their reference
}

// Phase is the units one load level completed, in sequence order. Unit
// i of a figures or traffic phase runs item i mod Cycle of a fixed list;
// a serve phase has no cycle (Cycle 1).
type Phase struct {
	Units []Unit
	Wall  time.Duration
	Cycle int
}

// Windows bound how a phase is cut for its statistics. Each statistic is
// taken per window of consecutive units (or of wall time) and the median
// over windows is reported, so a stall of the shared host moves one
// window rather than the figure. A window holds at least minWindow units,
// enough for a p99 with ten samples beyond it, and a whole number of
// cycles, so every window has the same mix of units and a percentile
// never falls between two unit kinds by chance.
const (
	maxWindows = 16
	minWindow  = 1000
)

func (p Phase) windows() [][]Unit {
	cycle := max(p.Cycle, 1)
	w := min(maxWindows, len(p.Units)/((minWindow+cycle-1)/cycle*cycle))
	if w == 0 {
		return [][]Unit{p.Units}
	}
	size := len(p.Units) / w / cycle * cycle
	out := make([][]Unit, w)
	for k := range w {
		out[k] = p.Units[k*size : (k+1)*size]
	}
	return out
}

// Attempted and Failed count operations, not units.
func (p Phase) Attempted() (n int) {
	for _, u := range p.Units {
		n += u.Ops
	}
	return n
}

func (p Phase) Failed() (n int) {
	for _, u := range p.Units {
		if !u.OK {
			n += u.Ops
		}
	}
	return n
}

// OpsPerSecond is the median over maxWindows equal spans of the phase's
// wall time of the correct operations completed per second in each.
func (p Phase) OpsPerSecond() float64 {
	if p.Wall <= 0 {
		return 0
	}
	span := p.Wall / maxWindows
	ops := make([]float64, maxWindows)
	for _, u := range p.Units {
		if k := int(u.Done / span); u.OK && k < maxWindows {
			ops[k] += float64(u.Ops)
		}
	}
	for k := range ops {
		ops[k] /= span.Seconds()
	}
	return stats.Median(ops)
}

// WindowLatencyUS returns the p-quantile of unit latency in each window,
// in microseconds, under the repository's shared quantile definition.
func (p Phase) WindowLatencyUS(q float64) []float64 {
	var out []float64
	for _, w := range p.windows() {
		xs := make([]float64, len(w))
		for i, u := range w {
			xs[i] = float64(u.Latency.Nanoseconds()) / 1e3
		}
		out = append(out, stats.Percentiles(xs, q)[0])
	}
	return out
}

// LatencyUS is the median over windows of the window's q-quantile.
func (p Phase) LatencyUS(q float64) float64 {
	return stats.Median(p.WindowLatencyUS(q))
}

// WithinRatio is the share of the phase's units that were correct and
// finished within limit. A failed unit misses the limit.
func (p Phase) WithinRatio(limit time.Duration) float64 {
	if len(p.Units) == 0 {
		return 0
	}
	n := 0
	for _, u := range p.Units {
		if u.OK && u.Latency <= limit {
			n++
		}
	}
	return float64(n) / float64(len(p.Units))
}
