package traffic

import (
	"testing"
)

func smallSweep() Grid {
	return Grid{
		Dim:        5,
		Algorithms: []string{"u-cube", "w-sort"},
		RatesPerMS: []float64{0.05, 2, 8},
		Ops:        16,
		DestCount:  8,
		Bytes:      2048,
		Seed:       1993,
	}
}

// TestSweepDeterministic is the golden determinism property of the
// saturation-curve experiment: the same config renders byte-identical
// tables on every run.
func TestSweepDeterministic(t *testing.T) {
	t1, err := smallSweep().Tables(&Saturation)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := smallSweep().Tables(&Saturation)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{
		{t1[0].Render(), t2[0].Render()},
		{t1[1].Render(), t2[1].Render()},
		{t1[2].Render(), t2[2].Render()},
		{t1[0].CSV(), t2[0].CSV()},
	} {
		if pair[0] != pair[1] {
			t.Errorf("sweep runs rendered differently:\n%s\n----\n%s", pair[0], pair[1])
		}
	}
}

// TestSweepSaturates: the physics sanity check behind the curve — at a
// near-zero offered load every op sees an idle network, so mean sojourn
// approximates the isolated service time, and pushing the load far up
// can only increase latency and channel utilization.
func TestSweepSaturates(t *testing.T) {
	tbs, err := smallSweep().Tables(&Saturation)
	if err != nil {
		t.Fatal(err)
	}
	mean, util := tbs[0], tbs[2]
	for ci := range mean.Columns {
		lo := mean.Rows[0].Cells[ci]
		hi := mean.Rows[len(mean.Rows)-1].Cells[ci]
		if hi <= lo {
			t.Errorf("%s: mean sojourn did not grow with load (%.1fus at light load, %.1fus near saturation)",
				mean.Columns[ci], lo, hi)
		}
		uLo := util.Rows[0].Cells[ci]
		uHi := util.Rows[len(util.Rows)-1].Cells[ci]
		if uHi <= uLo {
			t.Errorf("%s: utilization did not grow with load (%.4f -> %.4f)", util.Columns[ci], uLo, uHi)
		}
	}
}

func TestSweepRejects(t *testing.T) {
	rate := []float64{1}
	for _, c := range []struct {
		what string
		g    Grid
		f    *Family
	}{
		{"empty sweep", Grid{Dim: 5}, &Saturation},
		{"bad algorithm", Grid{Dim: 5, Algorithms: []string{"magic"}, RatesPerMS: rate}, &Saturation},
		{"bad dim", Grid{Dim: 0, Algorithms: []string{"w-sort"}, RatesPerMS: rate}, &Saturation},
		{"negative fault count", Grid{Dim: 3, FaultCounts: []int{-1}, RatesPerMS: rate}, &Degradation},
		{"zero lanes", Grid{Dim: 3, Lanes: []int{0}, RatesPerMS: rate}, &Spectrum},
		{"too many lanes", Grid{Dim: 3, Lanes: []int{9}, RatesPerMS: rate}, &Spectrum},
		{"bad policy", Grid{Dim: 3, Lanes: []int{2}, Policy: "magic", RatesPerMS: rate}, &Spectrum},
		{"bad port", Grid{Dim: 3, Ports: []string{"two-port"}, RatesPerMS: rate}, &Saturation},
		// A family labels only some axes; a second point on another axis
		// would give two columns one label.
		{"two algorithms per degradation table",
			Grid{Dim: 3, Algorithms: []string{"u-cube", "w-sort"}, FaultCounts: []int{0, 1}, RatesPerMS: rate}, &Degradation},
		{"two algorithms per spectrum table",
			Grid{Dim: 3, Algorithms: []string{"u-cube", "w-sort"}, Lanes: []int{1, 2}, RatesPerMS: rate}, &Spectrum},
		{"lane axis under saturation", Grid{Dim: 3, Lanes: []int{1, 2}, RatesPerMS: rate}, &Saturation},
	} {
		if _, err := c.g.Tables(c.f); err == nil {
			t.Errorf("%s accepted", c.what)
		}
	}
}

// An out-of-range dimension is an error from every family, not a panic
// while sizing the default destination count.
func TestGridDimOutOfRange(t *testing.T) {
	for _, f := range []*Family{&Saturation, &Degradation, &Spectrum} {
		for _, dim := range []int{0, 21} {
			g := Grid{Dim: dim, RatesPerMS: []float64{1}}
			if _, err := g.Tables(f); err == nil {
				t.Errorf("%s: dim %d accepted", f.Name, dim)
			}
		}
	}
}
