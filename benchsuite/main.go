// Command benchsuite is the repository's benchmark: it runs one of three
// workloads (figures, traffic, serve) against the program's public entry
// points, checks every output against a reference, and prints each metric
// by name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) records spans around every call into a layer and reports the
// per-layer metrics instead. Run it through run.sh, which builds it from
// source first; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hypercube/internal/stats"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository checkout holding the committed references
	commit   string
	lightRPS float64
	heavyRPS float64
	workers  int // load-generating threads, = nproc
}

// outcome is what a workload hands back for printing.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// stamp adds workload facts (generator lateness, phase sizes) to the
	// run's provenance line.
	stamp map[string]any
	// spans is the traced run's span log, written at exit.
	spans []Span
	// passes divides the self-time table into per-pass figures.
	passes int
}

var workloads = map[string]func(config) (*outcome, error){
	"figures": runFigures,
	"traffic": runTraffic,
	"serve":   runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: figures, traffic or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout holding the committed references")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit the program was built from, for the stamp")
	fs.Float64Var(&cfg.lightRPS, "light-rps", 1050, "serve: open-loop request rate of the light phase")
	fs.Float64Var(&cfg.heavyRPS, "heavy-rps", 1575, "serve: open-loop request rate of the heavy phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	work, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "benchsuite: unknown -workload %q (want figures, traffic or serve)\n", cfg.workload)
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "benchsuite: -trace must be 0 or 1, not %d\n", trace)
		return 2
	case cfg.seconds <= 0 || cfg.lightRPS <= 0 || cfg.heavyRPS <= 0:
		fmt.Fprintln(stderr, "benchsuite: -seconds, -light-rps and -heavy-rps must be positive")
		return 2
	}
	cfg.trace = trace == 1
	cfg.workers = runtime.NumCPU()
	runtime.GOMAXPROCS(cfg.workers)

	out, err := work(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchsuite: %s: %v\n", cfg.workload, err)
		return 2
	}
	stamp := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": cfg.commit,
	}
	for k, v := range out.stamp {
		stamp[k] = v
	}
	defs := EndToEnd
	if cfg.trace {
		defs = PerLayer()
		rows := LayerTable(out.spans, traceLayers)
		fmt.Fprintln(stdout, "self time per layer (whole traced run):")
		printLayerTable(stdout, rows)
		for _, r := range rows {
			out.metrics["self_ms."+r.Layer] = float64(r.SelfNS) / 1e6 / float64(max(out.passes, 1))
		}
		path, err := writeSpanLog(cfg, out.spans)
		if err != nil {
			fmt.Fprintf(stderr, "benchsuite: writing spans: %v\n", err)
			return 2
		}
		stamp["spans"] = path
	}
	if err := printResult(stdout, stamp, defs, out); err != nil {
		fmt.Fprintf(stderr, "benchsuite: %v\n", err)
		return 2
	}
	if out.failed > 0 {
		fmt.Fprintf(stderr, "benchsuite: %s: %d of %d operations failed their output check\n",
			cfg.workload, out.failed, out.attempted)
		return 1
	}
	return 0
}

// printResult prints the provenance stamp, a metric table, and the final
// JSON result line.
func printResult(w io.Writer, stamp map[string]any, defs []MetricDef, out *outcome) error {
	sb, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stamp %s\n", sb)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := out.metrics[d.Name]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", d.Name, v, d.Unit)
		ms[d.Name] = metric{v, d.Unit}
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, ms}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeSpanLog writes the traced run's spans under the checkout's build
// directory, one JSON object per line.
func writeSpanLog(cfg config, spans []Span) (string, error) {
	dir := filepath.Join(cfg.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// peakRSSMB is the process's resident-set high-water mark so far, in MiB.
// Workloads read it at the end of their light phase: once both CPUs are
// saturated, how far the heap overshoots its collection goal varies from
// run to run by more than any regression bound (24–52 MiB for traffic).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedSetup runs setup reps times and returns the median wall time in
// seconds. Repeating it makes set-up time a steady figure, so work moved
// into set-up shows as a regression of its own.
func timedSetup(reps int, setup func(rep int) error) (float64, error) {
	xs := make([]float64, reps)
	for r := range reps {
		t0 := time.Now()
		if err := setup(r); err != nil {
			return 0, err
		}
		xs[r] = time.Since(t0).Seconds()
	}
	return stats.Median(xs), nil
}

// closedLoop keeps workers units in flight for d: each worker starts its
// next unit as soon as its previous one ends. Unit i of the phase runs
// run(i); indices are handed out in order across workers. Garbage left by
// earlier work is collected first, so no phase pays for another's.
func closedLoop(workers, cycle int, d time.Duration, run func(i int) Unit) Phase {
	runtime.GC()
	var next atomic.Int64
	per := make([][]Unit, workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				u := run(i)
				u.Seq, u.Done = i, time.Since(start)
				per[w] = append(per[w], u)
			}
		}()
	}
	wg.Wait()
	ph := Phase{Wall: time.Since(start), Cycle: cycle}
	for _, us := range per {
		ph.Units = append(ph.Units, us...)
	}
	sort.Slice(ph.Units, func(a, b int) bool { return ph.Units[a].Seq < ph.Units[b].Seq })
	return ph
}

// latencyMetrics fills the SLO ratio and stamps the light and heavy
// latency percentiles with the per-window p99s behind them.
func latencyMetrics(out *outcome, light, heavy Phase, limit time.Duration) {
	out.metrics["heavy_slo_ratio"] = heavy.WithinRatio(limit)
	out.stamp["light_p50_us"], out.stamp["heavy_p50_us"] = light.LatencyUS(0.50), heavy.LatencyUS(0.50)
	out.stamp["light_p99_us"], out.stamp["heavy_p99_us"] = light.LatencyUS(0.99), heavy.LatencyUS(0.99)
	out.stamp["light_window_p99_us"] = light.WindowLatencyUS(0.99)
	out.stamp["heavy_window_p99_us"] = heavy.WindowLatencyUS(0.99)
}

// allocKiB reports heap bytes allocated so far, in KiB.
func allocKiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1024
}

// meanDur is the mean duration of the spans named name, in nanoseconds.
func meanDur(spans []Span, name string) float64 {
	var sum, n int64
	for _, s := range spans {
		if s.Name == name {
			sum += s.Dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// overheadMS is the tracing overhead of one pass: the median traced pass
// wall time minus the median untraced one, in milliseconds.
func overheadMS(untraced, traced []float64) float64 {
	return (stats.Median(traced) - stats.Median(untraced)) * 1e3
}

// alternatePasses runs pass untraced and then traced, in turns, for at
// least two rounds and until seconds have passed. It keeps the traced
// passes' spans in out and returns the tracing overhead of one pass.
func alternatePasses(seconds float64, out *outcome, pass func(tr *Tracer, round int)) float64 {
	tr := NewTracer()
	var untraced, traced []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		for _, t := range []*Tracer{nil, tr} {
			t0 := time.Now()
			pass(t, round)
			if d := time.Since(t0).Seconds(); t == nil {
				untraced = append(untraced, d)
			} else {
				traced = append(traced, d)
			}
		}
	}
	out.passes = len(traced)
	out.spans = tr.Spans()
	return overheadMS(untraced, traced)
}
