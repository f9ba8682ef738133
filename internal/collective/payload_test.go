package collective

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/topology"
)

// fillRandom's masked draw is rng.Intn(1024) - 512 value for value (Intn
// takes its power-of-two path: the low bits of the top 31 of one Int63),
// over a stream long enough to cycle the source's 607-word state hundreds
// of times, for several seeds.
func TestFillRandomMatchesIntn(t *testing.T) {
	for _, seed := range []int64{0, 1, -9, 1 << 40} {
		row := make([]float64, 1<<17)
		fillRandom(rand.New(rand.NewSource(seed)), row)
		ref := rand.New(rand.NewSource(seed))
		for i, v := range row {
			if want := float64(ref.Intn(1024) - 512); v != want {
				t.Fatalf("seed %d draw %d: %v, Intn gives %v", seed, i, v, want)
			}
		}
	}
}

// The analytic-expectation goldens: every dim 2..6, three seeds, both port
// models, every data-carrying variant. The standalone entry points verify
// internally; these tests assert the verification passes and the schedules
// complete.
func TestDataCollectiveGoldens(t *testing.T) {
	for n := 2; n <= 6; n++ {
		c := cube(n)
		for _, pm := range []core.PortModel{core.AllPort, core.OnePort} {
			p := params(pm)
			for seed := int64(1); seed <= 3; seed++ {
				in := RandomData(seed*100+int64(n), c.Nodes(), c.Nodes()*3)
				run := func(name string, f func() (DataResult, error)) {
					dr, err := f()
					if err != nil {
						t.Fatalf("n=%d pm=%v seed=%d %s: %v", n, pm, seed, name, err)
					}
					if err := dr.complete(c.Nodes()); err != nil {
						t.Fatalf("n=%d pm=%v seed=%d %s: %v", n, pm, seed, name, err)
					}
				}
				run("reduce-scatter", func() (DataResult, error) { return ReduceScatter(p, c, in, 10) })
				run("allreduce-hd", func() (DataResult, error) { return AllReduceHD(p, c, in, 10) })
				run("allreduce-ring", func() (DataResult, error) { return AllReduceRing(p, c, in, 10) })
				run("alltoall", func() (DataResult, error) { return AllToAll(p, c, in) })
				root := topology.NodeID(seed) % topology.NodeID(c.Nodes())
				run("reduce-data", func() (DataResult, error) { return ReduceData(p, c, root, in, 10) })
			}
		}
	}
}

// Attaching payloads must not perturb the event schedule. ReduceData runs
// Reduce's exact convergecast with message size L*ElemBytes, so its timing
// Result must equal the timing-only Reduce's field for field.
func TestReduceDataTimingMatchesReduce(t *testing.T) {
	for n := 1; n <= 6; n++ {
		c := cube(n)
		for _, pm := range []core.PortModel{core.AllPort, core.OnePort} {
			p := params(pm)
			in := RandomData(7, c.Nodes(), 64)
			root := topology.NodeID(c.Nodes() - 1)
			dr, err := ReduceData(p, c, root, in, 25)
			if err != nil {
				t.Fatalf("n=%d pm=%v: %v", n, pm, err)
			}
			want := Reduce(p, c, root, 64*ElemBytes, 25)
			if !reflect.DeepEqual(dr.Result, want) {
				t.Errorf("n=%d pm=%v: data-carrying reduce diverged from timing-only schedule\n got %+v\nwant %+v",
					n, pm, dr.Result, want)
			}
		}
	}
}

// AllToAll's pairwise exchange ships a constant N/2 blocks across
// ascending dimensions — the butterfly AllReduce's schedule with message
// size (N/2)*b*ElemBytes and zero compute. Timing must match exactly.
func TestAllToAllTimingMatchesButterfly(t *testing.T) {
	const b = 5
	for n := 1; n <= 6; n++ {
		c := cube(n)
		for _, pm := range []core.PortModel{core.AllPort, core.OnePort} {
			p := params(pm)
			in := RandomData(11, c.Nodes(), c.Nodes()*b)
			dr, err := AllToAll(p, c, in)
			if err != nil {
				t.Fatalf("n=%d pm=%v: %v", n, pm, err)
			}
			want := AllReduce(p, c, c.Nodes()/2*b*ElemBytes, 0)
			if !reflect.DeepEqual(dr.Result, want) {
				t.Errorf("n=%d pm=%v: alltoall timing diverged from butterfly\n got %+v\nwant %+v",
					n, pm, dr.Result, want)
			}
		}
	}
}

func TestExpectedHelpers(t *testing.T) {
	in := [][]float64{
		{1, 2, 3, 4},
		{10, 20, 30, 40},
		{100, 200, 300, 400},
		{1000, 2000, 3000, 4000},
	}
	sum := []float64{1111, 2222, 3333, 4444}
	ar := ExpectedAllReduce(in)
	for v := range ar {
		if !reflect.DeepEqual(ar[v], sum) {
			t.Fatalf("allreduce node %d: %v", v, ar[v])
		}
	}
	rs := ExpectedReduceScatter(in)
	for v := range rs {
		if !reflect.DeepEqual(rs[v], sum[v:v+1]) {
			t.Fatalf("reduce-scatter node %d: %v", v, rs[v])
		}
	}
	a2a := [][]float64{
		{1, 10, 100, 1000},
		{2, 20, 200, 2000},
		{3, 30, 300, 3000},
		{4, 40, 400, 4000},
	}
	if err := VerifyAllToAll(a2a, in); err != nil {
		t.Fatalf("alltoall: %v", err)
	}
	a2a[2][1] = 21
	if err := VerifyAllToAll(a2a, in); err == nil || !strings.Contains(err.Error(), "node 2 element 1") {
		t.Fatalf("alltoall divergence: %v", err)
	}
}

func TestVerifyDataNamesDivergence(t *testing.T) {
	got := [][]float64{{1, 2}, {3, 5}}
	want := [][]float64{{1, 2}, {3, 4}}
	err := VerifyData(got, want)
	if err == nil {
		t.Fatal("divergence not detected")
	}
	if got, want := err.Error(), "node 1 element 1"; !strings.Contains(got, want) {
		t.Fatalf("error %q does not name the divergence", got)
	}
	if err := VerifyData(want, want); err != nil {
		t.Fatalf("clean compare: %v", err)
	}
}

func TestRandomDataIntegerValued(t *testing.T) {
	d := RandomData(42, 8, 16)
	if len(d) != 8 || len(d[0]) != 16 {
		t.Fatalf("shape %dx%d", len(d), len(d[0]))
	}
	for v := range d {
		for i, x := range d[v] {
			if x != float64(int(x)) || x < -512 || x >= 512 {
				t.Fatalf("node %d elem %d: %v not an integer in [-512,512)", v, i, x)
			}
		}
	}
	if !reflect.DeepEqual(d, RandomData(42, 8, 16)) {
		t.Fatal("RandomData not deterministic")
	}
}

// RandomData's rows share one backing, so each must be capacity-clipped:
// appending to row v reallocates instead of overwriting row v+1.
func TestRandomDataRowsClipped(t *testing.T) {
	d := RandomData(42, 4, 8)
	next := append([]float64(nil), d[2]...)
	d[1] = append(d[1], 1e9, 2e9)
	if !reflect.DeepEqual(d[2], next) {
		t.Fatalf("append to row 1 overwrote row 2: %v, want %v", d[2], next)
	}
	for v := range d {
		if cap(d[v]) != len(d[v]) && v != 1 {
			t.Errorf("row %d: cap %d, len %d", v, cap(d[v]), len(d[v]))
		}
	}
}

// verifyAllToAllSeeded re-streams RandomData instead of keeping it, and
// must judge exactly as VerifyAllToAll against the materialized input.
func TestVerifyAllToAllSeeded(t *testing.T) {
	c := cube(3)
	p := params(core.AllPort)
	in := RandomData(77, c.Nodes(), c.Nodes()*2)
	dr, err := AllToAll(p, c, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyAllToAllSeeded(dr.Data, 77, c.Nodes(), make([]float64, c.Nodes()*2)); err != nil {
		t.Fatalf("seeded verify: %v", err)
	}
	dr.Data[5][3]++
	want := VerifyAllToAll(dr.Data, in)
	got := verifyAllToAllSeeded(dr.Data, 77, c.Nodes(), make([]float64, c.Nodes()*2))
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Fatalf("corrupted result: seeded %v, materialized %v", got, want)
	}
	if err := verifyAllToAllSeeded(dr.Data[:7], 77, c.Nodes(), make([]float64, c.Nodes()*2)); err == nil {
		t.Fatal("short result accepted")
	}
}
