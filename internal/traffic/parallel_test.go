package traffic

import (
	"reflect"
	"testing"

	"hypercube/internal/stats"
)

// TestSweepWorkersInvariant pins that fanning the grid cells across the
// parallel executor leaves every table family byte-identical at every
// worker count.
func TestSweepWorkersInvariant(t *testing.T) {
	for _, c := range []struct {
		f *Family
		g Grid
	}{
		{&Saturation, Grid{
			Dim: 4, Algorithms: []string{"u-cube", "maxport"}, RatesPerMS: []float64{2, 8, 32},
			Ops: 24, Bytes: 512, Seed: 7,
		}},
		{&Degradation, Grid{
			Dim: 4, FaultCounts: []int{1, 0, 3}, RatesPerMS: []float64{0.25, 2},
			Ops: 8, Bytes: 512, Seed: 7,
		}},
		{&Spectrum, Grid{
			Dim: 4, Ports: []string{"one-port", "all-port"}, Lanes: []int{1, 2}, Policy: "escape",
			RatesPerMS: []float64{2, 8}, Ops: 16, Bytes: 512, Seed: 7,
		}},
	} {
		var want []*stats.Table
		for _, workers := range []int{1, 2, 4, 8} {
			c.g.Workers = workers
			got, err := c.g.Tables(c.f)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: tables diverge from serial", c.f.Name, workers)
			}
		}
	}
}

// TestRunWorkersInvariant pins byte-identity of a single scenario driven
// through the worker-gated session path.
func TestRunWorkersInvariant(t *testing.T) {
	build := func() *Spec {
		return &Spec{
			Dim:  4,
			Seed: 11,
			Arrivals: &Arrivals{
				Kind:      "poisson",
				Count:     16,
				RatePerMS: 10,
				Op:        Template{Kind: KindMulticast, Algorithm: "w-sort", Bytes: 256, DestCount: 6},
			},
		}
	}
	want, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := RunWorkers(build(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: scenario result diverges from serial", workers)
		}
	}
}
