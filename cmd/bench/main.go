// Command bench is the performance-regression harness: it re-runs the
// Figure 9–14 experiments (plus the size-sweep and interference
// extensions) at pinned fidelities, and writes one dated JSON document —
// BENCH_<date>.json — with each benchmark's wall time, its headline result
// numbers, and the full metrics snapshot of everything simulated. Two such
// documents from different commits diff cleanly: a changed headline means
// the *results* moved, a changed wall time means the *speed* did.
//
// Usage:
//
//	bench                        # full fidelities, results/BENCH_<today>.json
//	bench -smoke                 # seconds-fast fidelities, for CI
//	bench -check results/BENCH_2026-08-05.json   # validate a document and exit
//	bench -check run.metrics.json                # also validates -metrics-json docs
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hypercube/internal/cliutil"
	"hypercube/internal/core"
	"hypercube/internal/metrics"
	"hypercube/internal/stats"
	"hypercube/internal/workload"
)

// BenchSchema identifies the regression-baseline document. Bump on
// incompatible layout changes.
const BenchSchema = "hypercube-bench/v1"

// BenchDoc is the BENCH_<date>.json layout.
type BenchDoc struct {
	Schema     string        `json:"schema"`
	Date       string        `json:"date"`
	GoVersion  string        `json:"go"`
	Smoke      bool          `json:"smoke"`
	Seed       int64         `json:"seed"`
	Benchmarks []BenchResult `json:"benchmarks"`
	// Gate holds the pinned Go-benchmark measurements (see gate.go) that
	// the regression gate compares across commits. Full runs record it;
	// smoke runs omit it to stay seconds-fast.
	Gate    []GateResult     `json:"gate,omitempty"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// BenchResult is one experiment's entry: wall-clock cost plus the headline
// numbers of its mid-range point, keyed unit/algorithm like the Go
// benchmark custom metrics (e.g. "us/w-sort", "steps/u-cube").
type BenchResult struct {
	Name        string             `json:"name"`
	WallSeconds float64            `json:"wall_seconds"`
	Headline    map[string]float64 `json:"headline"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		dir       = flag.String("dir", "results", "output directory")
		date      = flag.String("date", "", "date stamp for the output file (YYYY-MM-DD, default today)")
		smoke     = flag.Bool("smoke", false, "seconds-fast reduced fidelities (CI smoke mode)")
		check     = flag.String("check", "", "validate a bench or metrics JSON `file` and exit")
		seed      = flag.Int64("seed", 1993, "workload RNG seed")
		gate      = flag.Bool("gate", false, "run the pinned benchmark gate against the committed baseline and exit")
		baseline  = flag.String("baseline", "", "baseline `file` for -gate (default: latest results/BENCH_*.json with gate data)")
		tolNs     = flag.Float64("tol-ns", 0.40, "relative ns/op regression tolerance for -gate")
		tolAllocs = flag.Float64("tol-allocs", 0.15, "relative allocs/op and B/op regression tolerance for -gate")
		scaling   = flag.Bool("scaling", false, "measure parallel-executor speedup vs workers {1,2,4,8} and write results/parallel_speedup.{txt,csv}")
	)
	obs := cliutil.ObservabilityFlags()
	flag.Parse()

	if *check != "" {
		if err := checkFile(*check); err != nil {
			log.Fatalf("%s: %v", *check, err)
		}
		fmt.Printf("ok: %s\n", *check)
		return
	}
	if *scaling {
		paths, err := runScaling(*dir, []int{1, 2, 4, 8})
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range paths {
			fmt.Printf("wrote %s\n", p)
		}
		return
	}
	if *gate {
		path := *baseline
		if path == "" {
			var err error
			if path, err = latestBaseline(*dir); err != nil {
				log.Fatal(err)
			}
		}
		if err := gateCompare(path, *tolNs, *tolAllocs); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *date == "" {
		*date = time.Now().Format("2006-01-02")
	}
	if err := obs.Start("bench"); err != nil {
		log.Fatal(err)
	}
	// The bench document always carries a metrics snapshot; share the
	// -metrics-json registry when one is active.
	reg := obs.Registry
	if reg == nil {
		reg = metrics.New()
	}

	doc := BenchDoc{
		Schema:    BenchSchema,
		Date:      *date,
		GoVersion: runtime.Version(),
		Smoke:     *smoke,
		Seed:      *seed,
	}
	for _, bm := range benchmarks(*seed, *smoke, reg) {
		start := time.Now()
		tb := bm.run()
		doc.Benchmarks = append(doc.Benchmarks, BenchResult{
			Name:        bm.name,
			WallSeconds: time.Since(start).Seconds(),
			Headline:    midpointHeadline(tb, bm.unit),
		})
		fmt.Printf("ran %-24s %8s\n", bm.name, time.Since(start).Round(time.Millisecond))
	}
	if !*smoke {
		doc.Gate = runGate()
	}
	doc.Metrics = reg.Snapshot()

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(*dir, "BENCH_"+*date+".json")
	if err := cliutil.WriteJSON(path, doc); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(doc.Benchmarks))
	if err := obs.Finish(map[string]any{"date": *date, "smoke": *smoke}); err != nil {
		log.Fatal(err)
	}
}

// midpointHeadline extracts a table's mid-row cells keyed unit/column,
// mirroring midpointMetrics in the repository's Go benchmarks.
func midpointHeadline(tb *stats.Table, unit string) map[string]float64 {
	out := make(map[string]float64)
	if len(tb.Rows) == 0 {
		return out
	}
	row := tb.Rows[len(tb.Rows)/2]
	for i, col := range tb.Columns {
		out[unit+"/"+col] = row.Cells[i]
	}
	return out
}

type benchDef struct {
	name string
	unit string
	run  func() *stats.Table
}

// benchmarks pins the experiment fidelities. The full tier mirrors
// bench_test.go exactly (so BENCH documents and `go test -bench` headline
// metrics agree); the smoke tier trades statistical weight for seconds-fast
// CI turnaround while keeping every experiment shape.
func benchmarks(seed int64, smoke bool, reg *metrics.Registry) []benchDef {
	trials := func(full, quick int) int {
		if smoke {
			return quick
		}
		return full
	}
	points := func(dim, full, quick int) []int {
		if smoke {
			return workload.DestCounts(dim, quick)
		}
		return workload.DestCounts(dim, full)
	}
	return []benchDef{
		{"Fig09Stepwise6Cube", "steps", func() *stats.Table {
			return workload.Stepwise(workload.StepwiseConfig{
				Dim: 6, Trials: trials(20, 3), Seed: seed, Port: core.AllPort,
				DestCounts: points(6, 16, 4), Metrics: reg,
			})
		}},
		{"Fig10Stepwise10Cube", "steps", func() *stats.Table {
			return workload.Stepwise(workload.StepwiseConfig{
				Dim: 10, Trials: trials(5, 2), Seed: seed, Port: core.AllPort,
				DestCounts: points(10, 8, 3), Metrics: reg,
			})
		}},
		{"Fig11AvgDelay5Cube", "us", func() *stats.Table {
			return workload.Delay(workload.DelayConfig{
				Dim: 5, Trials: trials(10, 2), Seed: seed, Bytes: 4096,
				Stat: workload.AvgDelay, DestCounts: points(5, 8, 4), Metrics: reg,
			})
		}},
		{"Fig12MaxDelay5Cube", "us", func() *stats.Table {
			return workload.Delay(workload.DelayConfig{
				Dim: 5, Trials: trials(10, 2), Seed: seed, Bytes: 4096,
				Stat: workload.MaxDelay, DestCounts: points(5, 8, 4), Metrics: reg,
			})
		}},
		{"Fig13AvgDelay10Cube", "us", func() *stats.Table {
			return workload.Delay(workload.DelayConfig{
				Dim: 10, Trials: trials(3, 1), Seed: seed, Bytes: 4096,
				Stat: workload.AvgDelay, DestCounts: points(10, 6, 3), Metrics: reg,
			})
		}},
		{"Fig14MaxDelay10Cube", "us", func() *stats.Table {
			return workload.Delay(workload.DelayConfig{
				Dim: 10, Trials: trials(3, 1), Seed: seed, Bytes: 4096,
				Stat: workload.MaxDelay, DestCounts: points(10, 6, 3), Metrics: reg,
			})
		}},
		{"SizeSweep5Cube", "us", func() *stats.Table {
			sizes := []int{512, 4096, 16384}
			if smoke {
				sizes = []int{512, 4096}
			}
			return workload.SizeSweep(workload.SizeSweepConfig{
				Dim: 5, Dests: 12, Trials: trials(10, 2), Seed: seed,
				Sizes: sizes, Metrics: reg,
			})
		}},
		{"ExtConcurrent6Cube", "us", func() *stats.Table {
			counts := []int{1, 4, 8}
			if smoke {
				counts = []int{1, 4}
			}
			return workload.Concurrent(workload.ConcurrentConfig{
				Dim: 6, Dests: 12, Trials: trials(8, 2), Seed: seed,
				Counts: counts, Metrics: reg,
			})
		}},
	}
}

// checkFile strictly validates a bench or metrics JSON document, sniffing
// the schema field to pick the layout. Unknown fields, unknown schemas,
// empty benchmark lists, and non-finite numbers all fail.
func checkFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var sniff struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &sniff); err != nil {
		return fmt.Errorf("not JSON: %v", err)
	}
	switch sniff.Schema {
	case BenchSchema:
		var doc BenchDoc
		if err := strictUnmarshal(data, &doc); err != nil {
			return err
		}
		if len(doc.Benchmarks) == 0 {
			return fmt.Errorf("no benchmarks recorded")
		}
		if doc.Date == "" || doc.GoVersion == "" {
			return fmt.Errorf("missing date or go version")
		}
		for _, b := range doc.Benchmarks {
			if b.Name == "" {
				return fmt.Errorf("benchmark with empty name")
			}
			if !finite(b.WallSeconds) || b.WallSeconds < 0 {
				return fmt.Errorf("%s: bad wall_seconds %v", b.Name, b.WallSeconds)
			}
			if len(b.Headline) == 0 {
				return fmt.Errorf("%s: empty headline", b.Name)
			}
			for k, v := range b.Headline {
				if !finite(v) {
					return fmt.Errorf("%s: non-finite headline %s=%v", b.Name, k, v)
				}
			}
		}
		for _, g := range doc.Gate {
			if g.Name == "" {
				return fmt.Errorf("gate entry with empty name")
			}
			if !finite(g.NsPerOp) || g.NsPerOp < 0 ||
				!finite(g.AllocsPerOp) || g.AllocsPerOp < 0 ||
				!finite(g.BytesPerOp) || g.BytesPerOp < 0 {
				return fmt.Errorf("gate %s: bad measurement (%v ns/op, %v allocs/op, %v B/op)",
					g.Name, g.NsPerOp, g.AllocsPerOp, g.BytesPerOp)
			}
		}
		return checkSnapshot(doc.Metrics)
	case metrics.DocSchema:
		var doc metrics.Doc
		if err := strictUnmarshal(data, &doc); err != nil {
			return err
		}
		if doc.Command == "" {
			return fmt.Errorf("missing command")
		}
		if !finite(doc.WallSeconds) || doc.WallSeconds < 0 {
			return fmt.Errorf("bad wall_seconds %v", doc.WallSeconds)
		}
		return checkSnapshot(doc.Metrics)
	case "":
		return fmt.Errorf("missing schema field")
	default:
		return fmt.Errorf("unknown schema %q", sniff.Schema)
	}
}

func checkSnapshot(s metrics.Snapshot) error {
	for name, h := range s.Histograms {
		if h.Count < 0 || !finite(h.Mean) {
			return fmt.Errorf("histogram %s: bad count %d or mean %v", name, h.Count, h.Mean)
		}
	}
	return nil
}

// readBenchDoc loads and strictly parses one BENCH_<date>.json document.
func readBenchDoc(path string) (*BenchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc BenchDoc
	if err := strictUnmarshal(data, &doc); err != nil {
		return nil, err
	}
	if doc.Schema != BenchSchema {
		return nil, fmt.Errorf("unexpected schema %q", doc.Schema)
	}
	return &doc, nil
}

func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
