// The sequential-equivalence test wall: every simulation surface this
// repository exposes — figure workloads, traffic scenarios (data-carrying
// and faulted included), batch multicast runs, fault-tolerant protocol
// runs — is replayed through the sequential kernel and the parallel
// executor at workers {1, 2, 4, 8}, asserting byte-identical results and
// metrics invariance. The wall is the proof obligation behind
// ncube.Params.Workers' contract: worker count can never influence a
// simulated outcome.
package hypercube_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"hypercube"
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/metrics"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
	"hypercube/internal/traffic"
	"hypercube/internal/workload"
)

var wallWorkers = []int{1, 2, 4, 8}

// encode canonicalizes any result to comparable bytes. Snapshot maps
// marshal with sorted keys, so equal states encode identically.
func encode(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWallFigureWorkloads replays the delay experiments behind the
// Figure 11/12-style tables (small trial counts keep the wall fast) and
// requires byte-identical rendered tables and metric snapshots at every
// worker count.
func TestWallFigureWorkloads(t *testing.T) {
	build := func(stat workload.DelayStat, port core.PortModel, workers int) (string, string) {
		reg := metrics.New()
		p := ncube.NCube2(port)
		p.Workers = workers
		tb := workload.Delay(workload.DelayConfig{
			Dim:        5,
			Trials:     5,
			Seed:       1993,
			Bytes:      1024,
			Params:     p,
			Stat:       stat,
			Algorithms: []core.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort},
			DestCounts: []int{1, 7, 15, 31},
			Workers:    1, // point-level serialism; the batch runner is under test
			Metrics:    reg,
		})
		return tb.Render(), encode(t, reg.Snapshot())
	}
	for _, stat := range []workload.DelayStat{workload.AvgDelay, workload.MaxDelay} {
		for _, port := range []core.PortModel{core.OnePort, core.AllPort} {
			wantTable, wantMetrics := build(stat, port, 1)
			for _, workers := range wallWorkers[1:] {
				gotTable, gotMetrics := build(stat, port, workers)
				if gotTable != wantTable {
					t.Fatalf("stat=%v port=%v workers=%d: table diverges\n--- want\n%s\n--- got\n%s",
						stat, port, workers, wantTable, gotTable)
				}
				if gotMetrics != wantMetrics {
					t.Fatalf("stat=%v port=%v workers=%d: metric snapshot diverges\nwant %s\ngot  %s",
						stat, port, workers, wantMetrics, gotMetrics)
				}
			}
		}
	}
}

// wallSpecs builds one traffic spec per scenario family: a dependency mix,
// a Poisson data-carrying allreduce stream, a faulted fault-tolerant
// multicast stream under timed link/node chaos, and a group-phase
// collective round.
func wallSpecs() map[string]func() *hypercube.TrafficSpec {
	parse := func(s string) func() *hypercube.TrafficSpec {
		return func() *hypercube.TrafficSpec {
			spec, err := traffic.Parse([]byte(s))
			if err != nil {
				panic(err)
			}
			return spec
		}
	}
	return map[string]func() *hypercube.TrafficSpec{
		"multicast-mix": parse(`{"dim":5,"ops":[
			{"id":"a","kind":"multicast","src":0,"dests":[3,9,17,30],"bytes":1024},
			{"id":"b","kind":"scatter","src":31,"at_us":40},
			{"id":"c","kind":"broadcast","src":7,"after":["a"],"delay_us":25}]}`),
		"poisson-allreduce-data": parse(`{"dim":4,"seed":21,"arrivals":{
			"kind":"poisson","count":10,"rate_per_ms":6,
			"op":{"kind":"allreduce","bytes":512}}}`),
		"chaos-fault-tolerant": parse(`{"dim":4,"seed":5,"arrivals":{
			"kind":"poisson","count":8,"rate_per_ms":5,
			"op":{"kind":"fault-tolerant-multicast","dest_count":5,"bytes":256}},
			"faults":[{"kind":"link","count":3,"seed":11,"at_us":30},
			          {"kind":"node","node":9,"at_us":80}]}`),
		"group-phase": parse(`{"dim":4,"ops":[{"kind":"group-phase",
			"groups":[[0,1,2,3,4,5,6,7],[8,9,10,11,12,13,14,15]],"roots":[0,14],"bytes":768}]}`),
	}
}

// TestWallTrafficScenarios replays every scenario family through
// traffic.RunWorkers at the wall's worker counts and requires the
// JSON-encoded Result — op timelines, payload digests, fault outcomes,
// network totals — to match the sequential run byte for byte.
func TestWallTrafficScenarios(t *testing.T) {
	for name, build := range wallSpecs() {
		t.Run(name, func(t *testing.T) {
			ref, err := traffic.Run(build())
			if err != nil {
				t.Fatal(err)
			}
			want := encode(t, ref)
			for _, workers := range wallWorkers {
				res, err := traffic.RunWorkers(build(), workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := encode(t, res); got != want {
					t.Fatalf("workers=%d: traffic result diverges\nwant %s\ngot  %s", workers, want, got)
				}
			}
		})
	}
}

// TestWallBatchSimulate pins the public batch surface: SimulateBatch over
// a mixed batch equals the Simulate loop at every worker count.
func TestWallBatchSimulate(t *testing.T) {
	cube := hypercube.New(6, topology.HighToLow)
	var trees []*hypercube.Tree
	for i, alg := range []hypercube.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort} {
		src := hypercube.NodeID(i * 11 % cube.Nodes())
		dests := hypercube.RandomDests(cube, int64(100+i), src, 20)
		trees = append(trees, hypercube.Multicast(cube, alg, src, dests))
	}
	p := hypercube.NCube2Params(core.AllPort)
	want := make([]hypercube.MachineResult, len(trees))
	for i, tr := range trees {
		want[i] = hypercube.Simulate(p, tr, 2048)
	}
	for _, workers := range wallWorkers {
		pw := p
		pw.Workers = workers
		if got := hypercube.SimulateBatch(pw, trees, 2048); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: SimulateBatch diverges from Simulate loop", workers)
		}
	}
}

// TestWallSimulateMany pins the worker gate on concurrent multicasts
// sharing one interconnect: RunMany's results (network-wide blocking
// included) and its metric snapshot are identical at every worker count.
func TestWallSimulateMany(t *testing.T) {
	cube := hypercube.New(6, topology.HighToLow)
	var trees []*hypercube.Tree
	for i, alg := range []hypercube.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort} {
		src := hypercube.NodeID(i * 13 % cube.Nodes())
		trees = append(trees, hypercube.Multicast(cube, alg, src, hypercube.RandomDests(cube, int64(200+i), src, 24)))
	}
	run := func(workers int) ([]hypercube.MachineResult, string) {
		p := hypercube.NCube2Params(core.AllPort)
		p.Workers = workers
		reg := metrics.New()
		res := ncube.RunMany(p, trees, 2048, ncube.Instrumentation{Metrics: reg})
		return res, encode(t, reg.Snapshot())
	}
	want, wantMetrics := run(1)
	if want[0].TotalBlocked == 0 {
		t.Fatal("batch is contention-free; the wall needs cross-multicast blocking")
	}
	for _, workers := range wallWorkers[1:] {
		got, gotMetrics := run(workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: RunMany diverges from the sequential run", workers)
		}
		if gotMetrics != wantMetrics {
			t.Fatalf("workers=%d: metric snapshot diverges\nwant %s\ngot  %s", workers, wantMetrics, gotMetrics)
		}
	}
}

// TestWallFaultTolerant pins the worker gate on the fault-tolerant
// protocol runner: retries, repairs, and per-destination outcomes under a
// mixed fault plan are identical at every worker count.
func TestWallFaultTolerant(t *testing.T) {
	cube := hypercube.New(5, topology.HighToLow)
	run := func(workers int) hypercube.MachineResult {
		p := hypercube.NCube2Params(core.AllPort)
		p.Workers = workers
		plan := hypercube.FaultPlan{
			Seed:  77,
			Links: hypercube.RandomLinkFaults(cube, 13, 3),
			Nodes: []hypercube.NodeFault{{Node: 21, At: 60 * event.Microsecond}},
		}
		dests := hypercube.RandomDests(cube, 9, 0, 12)
		res, err := hypercube.SimulateFaultTolerant(p, cube, core.WSort, 0, dests, 512, plan)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	want := run(1)
	for _, workers := range wallWorkers[1:] {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: fault-tolerant result diverges", workers)
		}
	}
}
