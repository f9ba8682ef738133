package ncube

import (
	"reflect"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/topology"
)

// TestSessionBudgetTrips pins the watchdog path the serving tier uses to
// bound untrusted requests: a session run under a tiny step budget returns
// a *event.Diagnostic and a partial result, and the same scenario under
// default budgets completes and matches Run.
func TestSessionBudgetTrips(t *testing.T) {
	cube := topology.New(5, topology.HighToLow)
	tr := core.Build(cube, core.WSort, 0, []topology.NodeID{1, 2, 3, 7, 12, 19, 31})
	budgeted := func(maxSteps int) (Result, error) {
		s := NewSession(NCube2(core.AllPort), cube, Instrumentation{})
		res := s.InjectTree(0, tr, 4096, nil)
		err := s.Run(maxSteps, 0)
		out := *res
		s.Release()
		return out, err
	}

	// A two-event budget cannot finish a 7-destination multicast.
	res, err := budgeted(2)
	var diag *event.Diagnostic
	if !asDiagnostic(err, &diag) {
		t.Fatalf("err = %v, want *event.Diagnostic", err)
	}
	if diag.Steps == 0 {
		t.Errorf("diagnostic records no steps: %+v", diag)
	}
	if len(res.Recv) >= 7 {
		t.Errorf("budgeted run delivered everything (%d receipts) despite tripping", len(res.Recv))
	}

	// The same scenario under default budgets completes and matches Run.
	full, err := budgeted(0)
	if err != nil {
		t.Fatalf("unbudgeted run tripped: %v", err)
	}
	if want := Run(NCube2(core.AllPort), tr, 4096); !reflect.DeepEqual(full, want) {
		t.Errorf("budgeted session diverges from Run:\n got %+v\nwant %+v", full, want)
	}
}

func asDiagnostic(err error, out **event.Diagnostic) bool {
	d, ok := err.(*event.Diagnostic)
	if ok {
		*out = d
	}
	return ok
}
