package main

// The traffic workload runs a seeded list of traffic.Spec scenarios, each
// parsed and simulated on one shared network: Poisson multicast storms
// near saturation on a 6-cube (all-port, all-port with 4 round-robin
// lanes, one-port), payload-verified allreduce, reduce-scatter and
// alltoall on a 5-cube, and a drop-fault scenario of fault-tolerant
// multicasts. Here the network model runs contended, with header blocking,
// lanes and fault paths, and the collective payload path does its work;
// the figures workload runs the same network contention-free.

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"hypercube"
	"hypercube/internal/traffic"
)

// trafficLimit is the latency limit of one scenario.
const trafficLimit = 10 * time.Millisecond

// committedDigests holds the result digests of the scenario list at
// paperSeed, recorded from the program as committed (go test -run
// TestTrafficDigests -update regenerates it after a deliberate change to
// simulated output).
//
//go:embed testdata/traffic_digests.json
var committedDigests []byte

// scenario is one traffic spec of the list.
type scenario struct {
	name   string // family.index
	family string
	spec   []byte
	ops    int
}

// scenarios builds the seeded list. The seed draws every spec's arrival,
// destination, payload and fault seeds; the shapes are fixed.
func scenarios(seed int64) []scenario {
	rng := rand.New(rand.NewSource(seed))
	draw := func() int64 { return rng.Int63n(1 << 30) }
	var out []scenario
	add := func(family string, ops int, format string, args ...any) {
		n := 0
		for _, s := range out {
			if s.family == family {
				n++
			}
		}
		out = append(out, scenario{
			name: fmt.Sprintf("%s.%d", family, n), family: family, ops: ops,
			spec: []byte(fmt.Sprintf(format, args...)),
		})
	}
	const storm = `{"dim":6,"seed":%d%s,"arrivals":{"kind":"poisson","count":32,"rate_per_ms":4,` +
		`"op":{"kind":"multicast","algorithm":"w-sort","dest_count":32,"bytes":4096}}}`
	for range 4 {
		add("storm", 32, storm, draw(), "")
	}
	for range 4 {
		add("storm_lanes4", 32, storm, draw(), `,"lanes":4,"vc_policy":"round-robin"`)
	}
	for range 4 {
		add("oneport", 32, storm, draw(), `,"port":"one-port"`)
	}
	for _, kind := range []string{`"allreduce","algorithm":"hd"`, `"reduce-scatter"`, `"alltoall"`} {
		add("data", 1, `{"dim":5,"seed":%d,"ops":[{"kind":%s,"bytes":1024,"seed":%d}]}`, draw(), kind, draw())
	}
	for range 2 {
		add("chaos", 32, `{"dim":5,"seed":%d,"arrivals":{"kind":"poisson","count":32,"rate_per_ms":2,`+
			`"op":{"kind":"fault-tolerant-multicast","dest_count":12,"bytes":1024}},`+
			`"faults":[{"kind":"link","mode":"drop","count":4,"seed":%d}]}`, draw(), draw())
	}
	return out
}

// simulate parses and runs one scenario through the public entry points.
func simulate(sc scenario) (*traffic.Result, error) {
	spec, err := traffic.Parse(sc.spec)
	if err != nil {
		return nil, err
	}
	return hypercube.SimulateTraffic(spec)
}

// digest is the SHA-256 of a result's JSON encoding: every simulated
// statistic of every op and of the network.
func digest(res *traffic.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkResult verifies the invariants every scenario result must hold:
// one result per op, payload verification on the data kinds, and exact
// delivery accounting on faulted scenarios.
func checkResult(sc scenario, res *traffic.Result) error {
	if len(res.Ops) != sc.ops {
		return fmt.Errorf("%s: %d op results, want %d", sc.name, len(res.Ops), sc.ops)
	}
	for _, op := range res.Ops {
		switch op.Kind {
		case traffic.KindAllReduce, traffic.KindReduceScatter, traffic.KindAllToAll:
			if !op.DataVerified {
				return fmt.Errorf("%s: op %s payload not verified", sc.name, op.ID)
			}
		}
		if sc.family == "chaos" && op.Delivery == nil {
			return fmt.Errorf("%s: faulted op %s has no delivery accounting", sc.name, op.ID)
		}
		if d := op.Delivery; d != nil && d.Delivered+d.Failed != d.Dests {
			return fmt.Errorf("%s: op %s delivered %d + failed %d != dests %d",
				sc.name, op.ID, d.Delivered, d.Failed, d.Dests)
		}
	}
	return nil
}

// runChecked simulates a scenario and returns its digest, or an error if
// it failed to run or broke an invariant.
func runChecked(sc scenario) (string, error) {
	res, err := simulate(sc)
	if err != nil {
		return "", fmt.Errorf("%s: %w", sc.name, err)
	}
	if err := checkResult(sc, res); err != nil {
		return "", err
	}
	return digest(res)
}

// digestSet is the committed reference.
type digestSet struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func loadDigests() (digestSet, error) {
	var d digestSet
	err := json.Unmarshal(committedDigests, &d)
	return d, err
}

// trafficState is the workload's set-up product.
type trafficState struct {
	list   []scenario
	ref    []string // digests at the run seed
	failed int      // ops of scenarios that failed a set-up check
}

// setupTraffic checks the list at paperSeed against the committed digests,
// then runs the list at the run seed to record the measured phases'
// reference digests.
func setupTraffic(seed int64) (*trafficState, error) {
	want, err := loadDigests()
	if err != nil {
		return nil, fmt.Errorf("reading reference digests: %w", err)
	}
	st := &trafficState{list: scenarios(seed)}
	for _, sc := range scenarios(want.Seed) {
		got, err := runChecked(sc)
		if err != nil || got != want.Digests[sc.name] {
			fmt.Fprintf(os.Stderr, "benchsuite: %s at seed %d differs from its committed digest (%v)\n", sc.name, want.Seed, err)
			st.failed += sc.ops
		}
	}
	for _, sc := range st.list {
		d, err := runChecked(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
			st.failed += sc.ops
		}
		st.ref = append(st.ref, d)
	}
	return st, nil
}

func (st *trafficState) runUnit(i int) Unit {
	k := interleave(i, len(st.list))
	t0 := time.Now()
	d, err := runChecked(st.list[k])
	return Unit{Latency: time.Since(t0), Ops: st.list[k].ops, OK: err == nil && d == st.ref[k]}
}

func runTraffic(cfg config) (*outcome, error) {
	var st *trafficState
	setup, err := timedSetup(3, func(rep int) error {
		s, err := setupTraffic(cfg.seed)
		if err != nil {
			return err
		}
		if st == nil {
			st = s
			return nil
		}
		for i := range s.ref {
			if s.ref[i] != st.ref[i] {
				st.failed += st.list[i].ops
			}
		}
		st.failed += s.failed
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceTraffic(cfg, st)
	}
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	a0 := allocKiB()
	light := closedLoop(1, len(st.list), half, st.runUnit)
	rss := peakRSSMB()
	heavy := closedLoop(cfg.workers, len(st.list), half, st.runUnit)
	a1 := allocKiB()
	out := &outcome{
		attempted: light.Attempted() + heavy.Attempted(),
		failed:    light.Failed() + heavy.Failed() + st.failed,
		metrics:   map[string]float64{"setup_s": setup, "ops_per_s": heavy.OpsPerSecond(), "peak_rss_mb": rss},
		stamp: map[string]any{
			"light_units": len(light.Units), "heavy_units": len(heavy.Units),
			"slo_limit_ms": trafficLimit.Seconds() * 1e3,
		},
	}
	out.metrics["alloc_kb_per_op"] = (a1 - a0) / float64(max(out.attempted, 1))
	latencyMetrics(out, light, heavy, trafficLimit)
	return out, nil
}

// traceTraffic alternates untraced and traced passes over the list. Each
// scenario is a trace: a bench root with parse, canonicalize and run
// spans in the traffic layer.
func traceTraffic(cfg config, st *trafficState) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, failed: st.failed}
	var delivered int64
	overhead := alternatePasses(cfg.seconds, out, func(t *Tracer, round int) {
		if n := trafficPass(st, t, int64(round*len(st.list)), out); t != nil {
			delivered += n
		}
	})
	m := out.metrics
	perFamily := func(span string, scale float64) map[string]float64 {
		sum, n := map[string]float64{}, map[string]float64{}
		for _, s := range out.spans {
			if s.Name == span {
				f := st.list[(s.Trace-1)%int64(len(st.list))].family
				sum[f] += float64(s.Dur())
				n[f]++
			}
		}
		for f := range sum {
			sum[f] /= n[f] * scale
		}
		return sum
	}
	canon, run := perFamily("traffic.canonicalize", 1e3), perFamily("traffic.run", 1e6)
	var runNS float64
	for _, s := range out.spans {
		if s.Name == "traffic.run" {
			runNS += float64(s.Dur())
		}
	}
	for _, f := range trafficFamilies {
		m["traffic.canonicalize_us."+f] = canon[f]
		m["traffic.run_ms."+f] = run[f]
	}
	if delivered > 0 {
		m["traffic.ns_per_unicast"] = runNS / float64(delivered)
	}
	if err := countTraffic(st, m); err != nil {
		return nil, err
	}
	m["trace.overhead_ms"] = overhead
	out.stamp = map[string]any{"traced_passes": out.passes}
	return out, nil
}

// trafficPass runs every scenario once — parse, canonicalize, simulate —
// checking each result against the set-up reference, and returns the
// unicasts the network delivered.
func trafficPass(st *trafficState, tr *Tracer, trace0 int64, out *outcome) (delivered int64) {
	for i, sc := range st.list {
		trace := trace0 + int64(i) + 1
		root := tr.Begin("bench", "traffic.scenario", 0, trace)
		h := tr.Begin("traffic", "traffic.parse", root.ID(), trace)
		spec, err := traffic.Parse(sc.spec)
		h.End()
		var res *traffic.Result
		if err == nil {
			h = tr.Begin("traffic", "traffic.canonicalize", root.ID(), trace)
			err = spec.Canonicalize(traffic.PermissiveLimits())
			h.End()
		}
		if err == nil {
			h = tr.Begin("traffic", "traffic.run", root.ID(), trace)
			res, err = hypercube.SimulateTraffic(spec)
			h.End()
		}
		root.End()
		out.attempted += sc.ops
		if err == nil {
			err = checkResult(sc, res)
		}
		var d string
		if err == nil {
			d, err = digest(res)
		}
		if err != nil || d != st.ref[i] {
			out.failed += sc.ops
			continue
		}
		delivered += res.Net.Delivered
	}
	return delivered
}

// countTraffic measures one untimed pass's deterministic figures: heap
// allocated per scenario run by family, and the shared network's header
// blocking. The single-lane results do not report channel acquires, so
// acquires and the blocked ratio come from the multi-lane family, whose
// per-lane statistics do.
func countTraffic(st *trafficState, m map[string]float64) error {
	alloc, runs := map[string]float64{}, map[string]float64{}
	var blocks, laneBlocks, laneAcquires int64
	var peak int
	for _, sc := range st.list {
		spec, err := traffic.Parse(sc.spec)
		if err != nil {
			return err
		}
		a0 := allocKiB()
		res, err := hypercube.SimulateTraffic(spec)
		alloc[sc.family] += allocKiB() - a0
		runs[sc.family]++
		if err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		blocks += res.Net.HeaderBlocks
		peak = max(peak, res.Net.PeakQueue)
		for _, l := range res.Net.Lanes {
			laneAcquires += l.Acquires
			laneBlocks += l.Blocks
		}
	}
	for _, f := range trafficFamilies {
		m["traffic.alloc_kb."+f] = alloc[f] / max(runs[f], 1)
	}
	m["wormhole.header_blocks"] = float64(blocks)
	m["wormhole.peak_queue"] = float64(peak)
	m["wormhole.acquires"] = float64(laneAcquires)
	if laneAcquires > 0 {
		m["wormhole.blocked_ratio"] = float64(laneBlocks) / float64(laneAcquires)
	}
	return nil
}
