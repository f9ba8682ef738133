// Command faultsweep measures how the fault-tolerant multicast protocol
// degrades as the network gets sicker: it sweeps either the number of
// failed links or the random message-drop rate, and reports the delivery
// ratio (percent of destinations reached) and the completion latency
// (makespan over delivered copies, µs) per algorithm.
//
// Usage:
//
//	faultsweep                    # failed-link sweep, 5-cube, random dest sets
//	faultsweep -mode drop         # message drop-rate sweep
//	faultsweep -stat ratio        # only the delivery-ratio table
//	faultsweep -n 4 -csv          # machine-readable output
package main

import (
	"flag"
	"fmt"
	"log"

	"hypercube/internal/cliutil"
	"hypercube/internal/event"
	"hypercube/internal/faults"
	"hypercube/internal/ncube"
	"hypercube/internal/stats"
	"hypercube/internal/topology"
	"hypercube/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("faultsweep: ")
	var (
		dim    = flag.Int("n", 5, "hypercube dimensionality")
		trials = flag.Int("trials", 10, "fault draws per point")
		seed   = flag.Int64("seed", 1993, "fault and jitter RNG seed")
		bytes  = flag.Int("bytes", 1024, "message length")
		m      = flag.Int("m", 0, "destinations per trial (0 = half the cube; a full broadcast degenerates to the same tree for every algorithm)")
		port   = flag.String("port", "all-port", "port model: one-port or all-port")
		algos  = flag.String("algos", "u-cube,maxport,combine,w-sort", "comma-separated algorithms")
		mode   = flag.String("mode", "links", "what to sweep: links (failed-link count) or drop (message drop rate)")
		points = flag.Int("points", 9, "sweep points (links: 0..points-1 failures; drop: rates up to -maxrate)")
		rate   = flag.Float64("maxrate", 0.4, "largest drop rate of the drop sweep")
		stat   = flag.String("stat", "both", "table selection: ratio, latency, or both")
		csv    = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		plotIt = flag.Bool("plot", false, "render a text line chart instead of a table")
	)
	obs := cliutil.ObservabilityFlags()
	flag.Parse()

	pm, err := cliutil.ParsePort(*port)
	if err != nil {
		log.Fatal(err)
	}
	as, err := cliutil.ParseAlgorithms(*algos)
	if err != nil {
		log.Fatal(err)
	}
	if *stat != "ratio" && *stat != "latency" && *stat != "both" {
		log.Fatalf("unknown stat %q (want ratio, latency, or both)", *stat)
	}

	cube := topology.New(*dim, topology.HighToLow)
	src := topology.NodeID(0)
	if *m <= 0 {
		*m = cube.Nodes() / 2
	}
	if *m > cube.Nodes()-1 {
		log.Fatalf("-m %d exceeds the %d addressable destinations", *m, cube.Nodes()-1)
	}
	if err := obs.Start("faultsweep"); err != nil {
		log.Fatal(err)
	}
	ins := ncube.Instrumentation{Metrics: obs.Registry}
	jp := ncube.JitterParams{Params: ncube.NCube2(pm)}
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.String()
	}

	var xlabel, title string
	switch *mode {
	case "links":
		xlabel = "failed links"
		title = fmt.Sprintf("Delivery under link failures (%d-cube, m=%d, %d B, %s)", *dim, *m, *bytes, pm)
	case "drop":
		xlabel = "drop rate"
		title = fmt.Sprintf("Delivery under message drops (%d-cube, m=%d, %d B, %s)", *dim, *m, *bytes, pm)
	default:
		log.Fatalf("unknown mode %q (want links or drop)", *mode)
	}
	ratioTb := stats.NewTable(title+" — delivery ratio %", xlabel, names...)
	latTb := stats.NewTable(title+" — completion latency µs", xlabel, names...)

	for p := 0; p < *points; p++ {
		var x float64
		ratios := make([]float64, len(as))
		lats := make([]float64, len(as))
		for ai, a := range as {
			var rSum, lSum float64
			lTrials := 0
			for tr := 0; tr < *trials; tr++ {
				tseed := *seed + int64(p*(*trials)+tr)
				dests := workload.DrawDests(cube, tseed, src, *m)
				plan := faults.Plan{Seed: tseed}
				switch *mode {
				case "links":
					x = float64(p)
					plan.Links = faults.RandomLinks(cube, tseed, p)
				case "drop":
					if *points > 1 {
						x = *rate * float64(p) / float64(*points-1)
					}
					plan.DropRate = x
				}
				res, err := ncube.RunFaultTolerantInstrumented(jp, cube, a, src, dests, *bytes, plan, ins)
				if err != nil {
					log.Fatalf("%s at %s=%v: %v", a, xlabel, x, err)
				}
				reached := 0
				for _, d := range dests {
					if res.Status[d].Reached() {
						reached++
					}
				}
				rSum += 100 * float64(reached) / float64(len(dests))
				if reached > 0 {
					lSum += float64(res.Makespan) / float64(event.Microsecond)
					lTrials++
				}
			}
			ratios[ai] = rSum / float64(*trials)
			if lTrials > 0 {
				lats[ai] = lSum / float64(lTrials)
			}
		}
		ratioTb.Add(x, ratios...)
		latTb.Add(x, lats...)
	}

	if *stat == "ratio" || *stat == "both" {
		fmt.Print(cliutil.RenderTable(ratioTb, *csv, *plotIt))
	}
	if *stat == "both" && !*csv {
		fmt.Println()
	}
	if *stat == "latency" || *stat == "both" {
		fmt.Print(cliutil.RenderTable(latTb, *csv, *plotIt))
	}
	if err := obs.Finish(map[string]any{"dim": *dim, "trials": *trials, "mode": *mode, "seed": *seed}); err != nil {
		log.Fatal(err)
	}
}
