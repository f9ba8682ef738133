// Command traffic runs the trace-driven traffic engine: either one
// explicit scenario spec, or a grid of seeded Poisson scenarios — offered
// load (rows) crossed with one column axis — rendered as one of three
// table families. The column axis picks the family:
//
//   - none: saturation curves, one column per -algos multicast algorithm
//     (traffic_{mean,p95,util});
//   - -faults: degradation under dead links, one column per count, every
//     op a fault-tolerant multicast (chaos_{delivered,inflation,retry});
//   - -lanes and/or -ports: the port×lane spectrum, one column per port
//     model × lane count (lanes_{blocked,sojourn,util}).
//
// Usage:
//
//	traffic                           # saturation sweep, 6-cube, default rates
//	traffic -n 5 -rates 0.5,2,4,8    # choose the offered-load grid
//	traffic -n 4 -faults 0,2,4       # degradation surfaces
//	traffic -lanes 1,8 -policy escape # port×lane spectrum
//	traffic -dir results             # write the tables to files (two runs
//	                                  # with equal flags are byte-identical)
//	traffic -spec scenario.json      # run one scenario, print JSON result
//	traffic -spec -                   # ... reading the spec from stdin
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"hypercube/internal/cliutil"
	"hypercube/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traffic: ")
	var (
		dim     = flag.Int("n", 6, "hypercube dimensionality")
		algos   = flag.String("algos", "", "comma-separated multicast algorithms, one saturation column each (default u-cube,w-sort; w-sort for -faults, -lanes, -ports)")
		rates   = flag.String("rates", "0.25,0.5,1,2,4,8", "comma-separated offered loads, ops per simulated ms")
		faults  = flag.String("faults", "", "comma-separated dead-link counts: degradation tables, one column each")
		ports   = flag.String("ports", "one-port,all-port", "comma-separated port models of the port×lane spectrum")
		lanes   = flag.String("lanes", "1,2,4", "comma-separated virtual-channel counts of the port×lane spectrum")
		policy  = flag.String("policy", "round-robin", "spectrum lane policy: round-robin, lowest-occupancy, or escape")
		ops     = flag.Int("ops", 64, "Poisson arrivals per scenario")
		m       = flag.Int("m", 0, "destinations per multicast (0 = half the cube)")
		bytesF  = flag.Int("bytes", 4096, "message length")
		seed    = flag.Int64("seed", 1993, "arrival, destination, and fault-draw RNG seed")
		machine = flag.String("machine", "ncube2", "machine model: ncube2 or ncube3")
		port    = flag.String("port", "all-port", "port model of the saturation and degradation grids: one-port or all-port")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		plotIt  = flag.Bool("plot", false, "render text line charts instead of tables")
		dir     = flag.String("dir", "", "write the tables to this directory instead of stdout")
		specF   = flag.String("spec", "", "run one scenario spec file (- for stdin) and print its JSON result")
	)
	obs := cliutil.ObservabilityFlags()
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if err := obs.Start("traffic"); err != nil {
		log.Fatal(err)
	}
	if *specF != "" {
		runSpec(*specF)
	} else {
		g := traffic.Grid{
			Dim:        *dim,
			Machine:    *machine,
			RatesPerMS: rateList(*rates),
			Ports:      []string{*port},
			Ops:        *ops,
			DestCount:  *m,
			Bytes:      *bytesF,
			Seed:       *seed,
			Workers:    runtime.GOMAXPROCS(0),
		}
		fam, defaultAlgos := &traffic.Saturation, "u-cube,w-sort"
		spectrum := set["lanes"] || set["ports"]
		switch {
		case spectrum && set["faults"]:
			log.Fatal("-faults and -lanes/-ports pick different tables; give one")
		case set["policy"] && !spectrum:
			log.Fatal("-policy needs -lanes or -ports")
		case set["port"] && spectrum:
			log.Fatal("-port conflicts with -ports")
		case set["faults"]:
			fam, defaultAlgos = &traffic.Degradation, "w-sort"
			g.FaultCounts = countList("faults", *faults, 0)
		case spectrum:
			fam, defaultAlgos = &traffic.Spectrum, "w-sort"
			g.Ports = strings.FieldsFunc(*ports, func(r rune) bool { return r == ',' || r == ' ' })
			g.Lanes = countList("lanes", *lanes, 1)
			g.Policy = *policy
		}
		if !set["algos"] {
			*algos = defaultAlgos
		}
		as, err := cliutil.ParseAlgorithms(*algos)
		if err != nil {
			log.Fatal(err)
		}
		for _, a := range as {
			g.Algorithms = append(g.Algorithms, a.String())
		}
		runGrid(g, fam, *csv, *plotIt, *dir)
	}
	if err := obs.Finish(map[string]any{"dim": *dim, "ops": *ops, "seed": *seed}); err != nil {
		log.Fatal(err)
	}
}

// runSpec executes one scenario and prints {spec, result} as JSON — the
// spec echoed in canonical form so the output is self-describing.
func runSpec(path string) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		log.Fatal(err)
	}
	spec, err := traffic.Parse(data)
	if err != nil {
		log.Fatal(err)
	}
	res, err := traffic.Run(spec)
	if err != nil {
		log.Fatal(err)
	}
	out, err := json.MarshalIndent(struct {
		Spec   *traffic.Spec   `json:"spec"`
		Result *traffic.Result `json:"result"`
	}{spec, res}, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", out)
}

// runGrid renders the family's tables to stdout, or writes each as
// <dir>/<family>_<metric>.{txt,csv}.
func runGrid(g traffic.Grid, fam *traffic.Family, csv, plotIt bool, dir string) {
	tbs, err := g.Tables(fam)
	if err != nil {
		log.Fatal(err)
	}
	if dir == "" {
		for i, tb := range tbs {
			if i > 0 && !csv {
				fmt.Println()
			}
			fmt.Print(cliutil.RenderTable(tb, csv, plotIt))
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for i, tb := range tbs {
		name := filepath.Join(dir, fam.Name+"_"+fam.Metrics[i].Name)
		if err := os.WriteFile(name+".txt", []byte(tb.Render()), 0o644); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(name+".csv", []byte(tb.CSV()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

func rateList(s string) []float64 {
	var rs []float64
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || !(r > 0) {
			log.Fatalf("bad rate %q in -rates", f)
		}
		rs = append(rs, r)
	}
	return rs
}

// countList parses a comma-separated list of integers no smaller than min.
func countList(name, s string, min int) []int {
	var ks []int
	for _, f := range strings.Split(s, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || k < min {
			log.Fatalf("bad count %q in -%s", f, name)
		}
		ks = append(ks, k)
	}
	return ks
}
