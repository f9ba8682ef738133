package traffic

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"hypercube/internal/collective"
	"hypercube/internal/stats"
)

// Every data-carrying kind and variant, explicit trace: the run must
// complete with data_verified on each op and no delivery accounting
// (fault-free).
func TestDataOpsVerified(t *testing.T) {
	for _, c := range []struct{ kind, alg string }{
		{KindReduceScatter, ""},
		{KindAllReduce, ""},
		{KindAllReduce, "ring"},
		{KindAllToAll, ""},
	} {
		for dim := 2; dim <= 5; dim++ {
			spec := &Spec{Dim: dim, Seed: 11, Ops: []Op{
				{Kind: c.kind, Algorithm: c.alg, Bytes: 64, Seed: 5},
				{Kind: c.kind, Algorithm: c.alg, Bytes: 64, Seed: 6, After: []string{"op000"}},
			}}
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("%s/%s dim=%d: %v", c.kind, c.alg, dim, err)
			}
			for _, op := range res.Ops {
				if !op.DataVerified {
					t.Errorf("%s/%s dim=%d op %s: data not verified", c.kind, c.alg, dim, op.ID)
				}
				if op.Delivery != nil {
					t.Errorf("%s/%s dim=%d op %s: fault-free op carries delivery", c.kind, c.alg, dim, op.ID)
				}
			}
		}
	}
}

// A Poisson arrival process can template the data kinds; each generated
// op draws a distinct payload seed and all verify.
func TestDataArrivalsTemplate(t *testing.T) {
	for _, kind := range []string{KindReduceScatter, KindAllReduce, KindAllToAll} {
		spec := &Spec{Dim: 3, Seed: 9, Arrivals: &Arrivals{
			Kind: "poisson", Count: 6, RatePerMS: 2,
			Op: Template{Kind: kind, Bytes: 32},
		}}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(res.Ops) != 6 {
			t.Fatalf("%s: %d ops", kind, len(res.Ops))
		}
		seeds := map[int64]bool{}
		for i, op := range res.Ops {
			if !op.DataVerified {
				t.Errorf("%s op %d: not verified", kind, i)
			}
			seeds[spec.Ops[i].Seed] = true
			if spec.Ops[i].Src != 0 {
				t.Errorf("%s op %d: rootless op has src %d", kind, i, spec.Ops[i].Src)
			}
		}
		if len(seeds) != 6 {
			t.Errorf("%s: %d distinct payload seeds for 6 arrivals", kind, len(seeds))
		}
	}
}

// Canonicalization of the data kinds: rootless, destination sets
// rejected, allreduce algorithm validated and defaulted, payload
// footprint capped, and the canonical form a JSON fixed point.
func TestDataOpCanonicalization(t *testing.T) {
	ok := &Spec{Dim: 3, Ops: []Op{{Kind: KindAllReduce, Src: 5, Seed: 2}}}
	if err := ok.Canonicalize(Limits{}); err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	if op := ok.Ops[0]; op.Src != 0 || op.Algorithm != "hd" || op.Seed != 2 {
		t.Fatalf("canonical allreduce: %+v", op)
	}
	b1, err := ok.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(b1)
	if err != nil {
		t.Fatal(err)
	}
	if err := again.Canonicalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	b2, err := again.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("canonical form not a fixed point:\n%s\nvs\n%s", b1, b2)
	}

	rejects := []struct {
		spec *Spec
		want string
	}{
		{&Spec{Dim: 3, Ops: []Op{{Kind: KindAllReduce, Algorithm: "w-sort"}}}, "want hd or ring"},
		{&Spec{Dim: 3, Ops: []Op{{Kind: KindReduceScatter, Algorithm: "hd"}}}, "fixed schedule"},
		{&Spec{Dim: 3, Ops: []Op{{Kind: KindAllToAll, Dests: []int{1}}}}, "no destination set"},
		{&Spec{Dim: 3, Ops: []Op{{Kind: KindReduceScatter, DestCount: 2}}}, "no destination set"},
		{&Spec{Dim: 3, Ops: []Op{{Kind: KindAllReduce, Groups: [][]int{{0, 1}}, Roots: []int{0}}}}, "no groups"},
		{&Spec{Dim: 10, Ops: []Op{{Kind: KindAllReduce, Bytes: 1 << 19}}}, "payload footprint"},
	}
	for _, c := range rejects {
		err := c.spec.Canonicalize(Limits{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("want error containing %q, got %v", c.want, err)
		}
	}
}

// The run itself rejects a payload mismatch: corrupt the verifier's view
// by checking that VerifyData is actually wired in — a spec whose op
// completes must carry data_verified in the JSON encoding, and the field
// is omitted for timing-only kinds.
func TestDataVerifiedJSONPresence(t *testing.T) {
	spec := &Spec{Dim: 2, Ops: []Op{
		{Kind: KindAllReduce, Bytes: 16},
		{Kind: KindScatter, Src: 0, Bytes: 16},
	}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(res.Ops)
	if err != nil {
		t.Fatal(err)
	}
	var raw []map[string]any
	if err := json.Unmarshal(enc, &raw); err != nil {
		t.Fatal(err)
	}
	if v, ok := raw[0]["data_verified"]; !ok || v != true {
		t.Errorf("allreduce op missing data_verified: %v", raw[0])
	}
	if _, ok := raw[1]["data_verified"]; ok {
		t.Errorf("timing-only scatter op carries data_verified: %v", raw[1])
	}
}

// Zero-op guards: the sojourn statistics of an empty result are 0, never
// NaN or a panic.
func TestSojournStatsZeroOps(t *testing.T) {
	var r Result
	if got := r.AverageSojournNS(); got != 0 {
		t.Errorf("empty AverageSojournNS = %v", got)
	}
	if got := r.PercentileSojournNS(0.95); got != 0 {
		t.Errorf("empty PercentileSojournNS = %v", got)
	}
	mean, qs := r.SojournStatsNS(0.5, 0.95)
	if mean != 0 || qs[0] != 0 || qs[1] != 0 {
		t.Errorf("empty SojournStatsNS = %v %v", mean, qs)
	}
}

// A spec whose ops all land on faulted links: every destination fails,
// but the statistics stay finite and delivery accounting balances. The
// multicast sources sit behind permanently dropped links in every
// dimension, so nothing is ever delivered.
func TestSojournStatsFullyFailedSpec(t *testing.T) {
	spec := &Spec{Dim: 2, Ops: []Op{
		{Kind: KindMulticast, Src: 0, Dests: []int{1, 2, 3}, Bytes: 64},
	}}
	// Drop every outgoing link of node 0 before time zero.
	for d := 0; d < 2; d++ {
		spec.Faults = append(spec.Faults, FaultEvent{Kind: FaultLink, Mode: FaultModeDrop, From: 0, Dim: d})
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	op := res.Ops[0]
	if op.Delivery == nil || op.Delivery.Delivered != 0 || op.Delivery.Failed != 3 {
		t.Fatalf("delivery = %+v, want 0 delivered / 3 failed", op.Delivery)
	}
	mean := res.AverageSojournNS()
	if mean != mean || mean < 0 { // NaN check
		t.Errorf("mean sojourn %v", mean)
	}
	if p := res.PercentileSojournNS(0.95); p < 0 {
		t.Errorf("p95 sojourn %v", p)
	}
}

// The engine's quantile now agrees with the repo-wide stats definition —
// pinned on the {10,20,30,40} sample where the old nearest-rank said 40.
func TestPercentileSojournSharedSemantics(t *testing.T) {
	r := Result{Ops: []OpResult{
		{SojournNS: 40}, {SojournNS: 10}, {SojournNS: 30}, {SojournNS: 20},
	}}
	if got := r.PercentileSojournNS(0.95); got != 39 {
		t.Errorf("p95 = %d, want 39 (interpolated 38.5 rounded)", got)
	}
	xs := []int64{40, 10, 30, 20}
	if got, want := r.PercentileSojournNS(0.5), stats.PercentileInt64(xs, 0.5); got != want {
		t.Errorf("median %d != stats %d", got, want)
	}
	if got := r.AverageSojournNS(); got != 25 {
		t.Errorf("mean = %v", got)
	}
}

// SojournStatsNS's one-sort path must render the same sweep tables as
// per-call methods.
func TestSweepTablesMatchPerCallStats(t *testing.T) {
	cfg := Grid{
		Dim:        3,
		Algorithms: []string{"w-sort"},
		RatesPerMS: []float64{0.5, 2},
		Ops:        8,
		Seed:       5,
	}
	tbs, err := cfg.Tables(&Saturation)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the cells through the single-quantile methods.
	for ri, rate := range cfg.RatesPerMS {
		spec := &Spec{Dim: cfg.Dim, Seed: cfg.Seed, Arrivals: &Arrivals{
			Kind: "poisson", Count: cfg.Ops, RatePerMS: rate,
			Op: Template{Kind: KindMulticast, Algorithm: "w-sort", Bytes: 4096, DestCount: 4},
		}}
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		wantMean := res.AverageSojournNS() / 1000
		wantP95 := float64(res.PercentileSojournNS(0.95)) / 1000
		if got := tbs[0].Rows[ri].Cells[0]; got != wantMean {
			t.Errorf("rate %g: table mean %v != per-call %v", rate, got, wantMean)
		}
		if got := tbs[1].Rows[ri].Cells[0]; got != wantP95 {
			t.Errorf("rate %g: table p95 %v != per-call %v", rate, got, wantP95)
		}
	}
}

// Payload block sizing: Bytes floors to whole elements with a one-element
// minimum, and PayloadSeed mixes spec and op seeds.
func TestBlockElemsAndPayloadSeed(t *testing.T) {
	if got := (&Op{Bytes: 1}).BlockElems(); got != 1 {
		t.Errorf("BlockElems(1) = %d", got)
	}
	if got := (&Op{Bytes: 64}).BlockElems(); got != 64/collective.ElemBytes {
		t.Errorf("BlockElems(64) = %d", got)
	}
	s := &Spec{Seed: 2}
	if a, b := s.PayloadSeed(&Op{Seed: 1}), s.PayloadSeed(&Op{Seed: 2}); a == b {
		t.Errorf("payload seeds collide: %d", a)
	}
}

// The aliasing wall: every data kind runs on one shared 6-cube network in
// the middle of a multicast storm, so header blocking reorders deliveries
// and absorbs arbitrarily against the schedules' own rounds — the regime
// in which a payload view read after its sender rewrote it would surface.
// Each op must verify at every lane count and worker count, and the
// result must not depend on the worker count.
func TestDataAliasingWall(t *testing.T) {
	build := func(lanes int) *Spec {
		s := &Spec{Dim: 6, Seed: 29, Arrivals: &Arrivals{
			Kind: "poisson", Count: 96, RatePerMS: 0.5,
			Op: Template{Kind: KindMulticast, Algorithm: "w-sort", DestCount: 32, Bytes: 4096},
		}}
		if lanes > 1 {
			s.Lanes, s.VCPolicy = lanes, "round-robin"
		}
		for i, at := range []int64{0, 700, 1900} {
			seed := int64(10 * i)
			s.Ops = append(s.Ops,
				Op{Kind: KindAllReduce, Algorithm: "hd", Bytes: 64, Seed: seed + 1, AtUS: at},
				Op{Kind: KindAllReduce, Algorithm: "ring", Bytes: 64, Seed: seed + 2, AtUS: at},
				Op{Kind: KindReduceScatter, Bytes: 64, Seed: seed + 3, AtUS: at},
				Op{Kind: KindAllToAll, Bytes: 64, Seed: seed + 4, AtUS: at},
			)
		}
		return s
	}
	for _, lanes := range []int{1, 2, 4} {
		var want []byte
		for _, workers := range []int{1, 2, 8} {
			res, err := RunWorkers(build(lanes), workers)
			if err != nil {
				t.Fatalf("lanes=%d workers=%d: %v", lanes, workers, err)
			}
			data := 0
			for _, op := range res.Ops {
				if dataKind(op.Kind) {
					data++
					if !op.DataVerified {
						t.Errorf("lanes=%d workers=%d op %s: data not verified", lanes, workers, op.ID)
					}
				}
			}
			if data != 12 {
				t.Fatalf("lanes=%d workers=%d: %d data ops, want 12", lanes, workers, data)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if string(got) != string(want) {
				t.Errorf("lanes=%d: workers=%d result differs from workers=1", lanes, workers)
			}
		}
	}
}

// Data ops all occupy node 0's injector, so ops arriving together queue
// and each starts at the instant its predecessor completes, from inside
// that completion. Each must still verify, and the whole result must stay
// byte-identical to its pinned digest.
func TestQueuedDataOpsDigest(t *testing.T) {
	spec := &Spec{Dim: 4, Seed: 21, Ops: []Op{
		{Kind: KindAllToAll, Bytes: 64, Seed: 1},
		{Kind: KindAllReduce, Algorithm: "hd", Bytes: 128, Seed: 2},
		{Kind: KindReduceScatter, Bytes: 64, Seed: 3},
		{Kind: KindAllReduce, Algorithm: "ring", Bytes: 64, Seed: 4},
		{Kind: KindAllToAll, Bytes: 32, Seed: 5, AtUS: 40},
	}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range res.Ops {
		if !op.DataVerified {
			t.Errorf("op %s: data not verified", op.ID)
		}
		if i > 0 && op.StartNS != res.Ops[i-1].FinishNS {
			t.Errorf("op %s starts at %d, not at its predecessor's finish %d", op.ID, op.StartNS, res.Ops[i-1].FinishNS)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	const want = "3cf770ffe776cf095b96ac8aa624ad7da84e7aa5d45ff069af31a2d4994094c9"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Errorf("result digest %s, want %s", got, want)
	}
}
