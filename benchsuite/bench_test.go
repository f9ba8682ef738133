package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hypercube/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite testdata/traffic_digests.json from the current program")

// TestTrafficDigests pins the scenario list at paperSeed to the committed
// digests; -update records them from the program as it stands.
func TestTrafficDigests(t *testing.T) {
	got := digestSet{Seed: paperSeed, Digests: map[string]string{}}
	for _, sc := range scenarios(paperSeed) {
		d, err := runChecked(sc)
		if err != nil {
			t.Fatal(err)
		}
		got.Digests[sc.name] = d
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/traffic_digests.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	if want.Seed != paperSeed || len(want.Digests) != len(got.Digests) {
		t.Fatalf("committed digests cover seed %d, %d scenarios; want seed %d, %d", want.Seed, len(want.Digests), paperSeed, len(got.Digests))
	}
	for name, d := range got.Digests {
		if want.Digests[name] != d {
			t.Errorf("%s: digest %s, committed %s", name, d, want.Digests[name])
		}
	}
}

func TestGeneratorsReproducible(t *testing.T) {
	serveSeq := func(seed int64) string {
		var b strings.Builder
		p := plan(seed, 2000)
		for i := range p.seq {
			r := p.at(i)
			b.WriteString(r.path + " " + r.body + "\n")
		}
		return b.String()
	}
	trafficList := func(seed int64) string {
		var b strings.Builder
		for _, sc := range scenarios(seed) {
			b.WriteString(sc.name + " " + string(sc.spec) + "\n")
		}
		return b.String()
	}
	for name, gen := range map[string]func(int64) string{"serve": serveSeq, "traffic": trafficList} {
		if gen(7) != gen(7) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if gen(7) == gen(8) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
}

func TestServeSequenceShape(t *testing.T) {
	const n = 10000
	seen := map[string]bool{}
	paths := map[string]int{}
	repeats := 0
	p := plan(3, n)
	for i := range p.seq {
		r := p.at(i)
		if seen[r.key()] {
			repeats++
		}
		seen[r.key()] = true
		paths[r.path]++
	}
	// One new key per block of ten; a few timing-only collective keys
	// share a body, which only adds repeats.
	if lo := n - n/newKeyEvery; repeats < lo || repeats > lo+n/50 {
		t.Errorf("%d repeats in %d requests, want about %d", repeats, n, lo)
	}
	// Keys are 4:2:1:1 simulate:collective:tree:traffic; repeats draw
	// keys uniformly, so requests follow the same ratio loosely.
	sim, col := float64(paths["/v1/simulate"])/n, float64(paths["/v1/collective"])/n
	if sim < 0.4 || sim > 0.6 || col < 0.15 || col > 0.35 || paths["/v1/tree"] == 0 || paths["/v1/traffic"] == 0 {
		t.Errorf("endpoint mix %v", paths)
	}
	for i := range 64 {
		r := keyRequest(3, i)
		if r.path == "/v1/traffic" {
			if _, err := traffic.Parse([]byte(r.body)); err != nil {
				t.Errorf("key %d: %v", i, err)
			}
		}
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		// Two concurrent children overlapping on [20,40], plus one
		// running past the parent's end: covered = [10,50] + [90,100].
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 130},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 2, Start: 15, End: 25},
	}
	self := SelfTimes(spans)
	want := map[int64]int64{1: 50, 2: 20, 3: 30, 4: 40, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	rows := LayerTable([]Span{
		{ID: 1, Layer: "bench", Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: "core", Start: 2, End: 6},
	}, []string{"bench", "core"})
	if rows[0].SelfNS != 6 || rows[1].SelfNS != 4 || rows[0].TotalNS != 10 {
		t.Errorf("layer table %+v", rows)
	}
}

func TestFigureCheckerRejectsCorruptTable(t *testing.T) {
	f := figureSet()[2] // fig11, a delay table
	want, err := os.ReadFile(filepath.Join("..", "internal", "workload", "testdata", f.golden))
	if err != nil {
		t.Fatal(err)
	}
	full := f.render(paperSeed, nil)
	if full != string(want) {
		t.Fatal("fixture-fidelity render differs from the committed golden")
	}
	ref := parseTable(full)
	m := f.points[5]
	point := f.render(paperSeed, []int{m})
	if !ref.matchesPoint(m, point) {
		t.Fatalf("one-point render of %d does not match its reference row:\n%s", m, point)
	}
	corrupt := strings.Replace(point, ".", "9", 1)
	if ref.matchesPoint(m, corrupt) {
		t.Error("checker accepted a corrupted point")
	}
	if ref.matchesPoint(m+1, point) {
		t.Error("checker accepted a point under the wrong x value")
	}
}

func TestTrafficCheckerRejectsCorruptResult(t *testing.T) {
	list := scenarios(paperSeed)
	var chaos, data scenario
	for _, sc := range list {
		switch sc.family {
		case "chaos":
			chaos = sc
		case "data":
			data = sc
		}
	}
	for _, tc := range []struct {
		sc      scenario
		corrupt func(*traffic.Result)
	}{
		{chaos, func(r *traffic.Result) { r.Ops[0].Delivery.Delivered++ }},
		{data, func(r *traffic.Result) { r.Ops[0].DataVerified = false }},
		{data, func(r *traffic.Result) { r.Ops = r.Ops[:0] }},
	} {
		res, err := simulate(tc.sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkResult(tc.sc, res); err != nil {
			t.Fatalf("%s: clean result rejected: %v", tc.sc.name, err)
		}
		clean, _ := digest(res)
		tc.corrupt(res)
		if err := checkResult(tc.sc, res); err == nil {
			t.Errorf("%s: corrupted result accepted", tc.sc.name)
		}
		if d, _ := digest(res); d == clean {
			t.Errorf("%s: digest blind to the corruption", tc.sc.name)
		}
	}
}

func TestInterleaveVisitsEveryItemOncePerCycle(t *testing.T) {
	for _, n := range []int{1, 2, 17, 135} {
		seen := make(map[int]bool)
		for i := range n {
			seen[interleave(i, n)] = true
		}
		if len(seen) != n {
			t.Errorf("n=%d: a cycle visits %d distinct items", n, len(seen))
		}
		if n > 2 && interleave(1, n) == 1 {
			t.Errorf("n=%d: neighbouring units map to neighbouring items", n)
		}
	}
}

func TestBodyLedgerRejectsChangedBody(t *testing.T) {
	l := newLedger()
	if !l.check("k", []byte("abc")) || !l.check("k", []byte("abc")) {
		t.Fatal("identical bodies rejected")
	}
	if l.check("k", []byte("abd")) {
		t.Error("changed body accepted")
	}
	if !l.check("other", []byte("abd")) {
		t.Error("first body of a new key rejected")
	}
}

// TestServeSmoke runs the three serve phases briefly against a real
// loopback server and checks that every request came back 200 with a
// stable body.
func TestServeSmoke(t *testing.T) {
	cfg := config{seed: 5, seconds: 0.5, lightRPS: 2000, heavyRPS: 4000, workers: 2}
	ledger := newLedger()
	start := time.Now()
	ps, err := runPhases(cfg, phasePlans(cfg), NewTracer(), ledger)
	if err != nil {
		t.Fatal(err)
	}
	if ps.failed() != 0 || ps.attempted() < 2000 {
		t.Errorf("%d of %d requests failed", ps.failed(), ps.attempted())
	}
	if r := ps.counts.hitRatio(); r < 0.5 {
		t.Errorf("cache hit ratio %.2f, want most requests to repeat a key", r)
	}
	t.Logf("%d requests in %v", ps.attempted(), time.Since(start))
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []MetricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, EndToEnd)
	same("per_layer", doc.PerLayer, PerLayer())
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
}
