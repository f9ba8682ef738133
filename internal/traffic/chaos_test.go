package traffic

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestFaultCanonicalization: seeded random draws expand into explicit
// sorted arc entries, the drop default is made explicit, duplicates
// collapse, and the result is a fixed point of Canonicalize.
func TestFaultCanonicalization(t *testing.T) {
	s := &Spec{
		Dim: 4,
		Ops: []Op{{Kind: KindBroadcast, Src: 0}},
		Faults: []FaultEvent{
			{Kind: FaultLink, Count: 3, Seed: 7},
			{Kind: FaultNode, Node: 5, AtUS: 10},
			{Kind: FaultLink, From: 2, Dim: 1, AtUS: 5, UntilUS: 50, Mode: FaultModeStall},
			{Kind: FaultLink, From: 2, Dim: 1, AtUS: 5, UntilUS: 50, Mode: FaultModeStall}, // dup
		},
	}
	if err := s.Canonicalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	if len(s.Faults) != 5 {
		t.Fatalf("canonicalized to %d faults, want 5 (3 drawn + node + deduped stall)", len(s.Faults))
	}
	for i, f := range s.Faults {
		if f.Count != 0 || f.Seed != 0 {
			t.Errorf("fault %d kept draw fields: %+v", i, f)
		}
		if f.Kind == FaultLink && f.Mode == "" {
			t.Errorf("fault %d: drop default not made explicit", i)
		}
		if i > 0 && s.Faults[i-1].AtUS > f.AtUS {
			t.Errorf("fault %d out of at_us order", i)
		}
	}

	b1, err := s.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(b1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Canonicalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	b2, err := s2.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("faulted canonical form is not a fixed point:\n%s\n----\n%s", b1, b2)
	}

	// The same scenario minus its fault schedule canonicalizes to
	// DIFFERENT bytes: the schedule is part of the cache key.
	plain := &Spec{Dim: 4, Ops: []Op{{Kind: KindBroadcast, Src: 0}}}
	if err := plain.Canonicalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	pb, err := plain.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, pb) {
		t.Error("faulted and fault-free specs share canonical bytes")
	}
}

// TestFaultCanonicalizeRejects: every malformed fault entry errors with a
// message, never panics, and never silently drops the entry.
func TestFaultCanonicalizeRejects(t *testing.T) {
	op := []Op{{Kind: KindBroadcast, Src: 0}}
	cases := map[string][]FaultEvent{
		"missing kind":  {{AtUS: 1}},
		"unknown kind":  {{Kind: "gamma-ray", AtUS: 1}},
		"neg at":        {{Kind: FaultLink, From: 1, AtUS: -1}},
		"bad mode":      {{Kind: FaultLink, From: 1, Mode: "flap"}},
		"until <= at":   {{Kind: FaultLink, From: 1, AtUS: 10, UntilUS: 10}},
		"neg until":     {{Kind: FaultLink, From: 1, UntilUS: -4}},
		"link node":     {{Kind: FaultLink, From: 1, Node: 2}},
		"count+arc":     {{Kind: FaultLink, Count: 2, From: 1}},
		"neg count":     {{Kind: FaultLink, Count: -1}},
		"seed no count": {{Kind: FaultLink, From: 1, Seed: 9}},
		"from outside":  {{Kind: FaultLink, From: 16}},
		"dim outside":   {{Kind: FaultLink, Dim: 4}},
		"node mode":     {{Kind: FaultNode, Node: 1, Mode: FaultModeDrop}},
		"node until":    {{Kind: FaultNode, Node: 1, UntilUS: 5}},
		"node count":    {{Kind: FaultNode, Node: 1, Count: 2}},
		"node arc":      {{Kind: FaultNode, From: 1, Dim: 1}},
		"node outside":  {{Kind: FaultNode, Node: 16}},
		// All 64 arcs of the 4-cube drawn, plus one node fault: 65 > the
		// default MaxFaults of 64.
		"over the limit": {{Kind: FaultLink, Count: 64, Seed: 1}, {Kind: FaultNode, Node: 1}},
	}
	for name, fs := range cases {
		s := &Spec{Dim: 4, Ops: op, Faults: fs}
		if err := s.Canonicalize(Limits{}); err == nil {
			t.Errorf("%s: accepted", name)
		} else if strings.Contains(err.Error(), "panic") {
			t.Errorf("%s: suspicious error %q", name, err)
		}
	}
}

// TestFaultedDeliveryAccounting: with every outgoing link of a plain
// multicast's root dead, the op reports all destinations failed; a
// fault-tolerant multicast facing a single dead destination node retries,
// gives the dead node up, and still reaches everyone else. Every faulted
// op satisfies delivered + failed == dests, and identical faulted specs
// give identical results.
func TestFaultedDeliveryAccounting(t *testing.T) {
	mk := func() *Spec {
		return &Spec{
			Dim: 4,
			Ops: []Op{
				{Kind: KindMulticast, Src: 0, Dests: []int{1, 2, 3, 4, 5, 6, 7}, Bytes: 512},
				{Kind: KindFTMulticast, Src: 8, Dests: []int{9, 10, 11, 12, 13}, Bytes: 512, AtUS: farApartUS},
			},
			Faults: []FaultEvent{
				// Sever node 0 from the cube: all four outgoing arcs die
				// at t=0, stranding the plain multicast's whole tree.
				{Kind: FaultLink, From: 0, Dim: 0},
				{Kind: FaultLink, From: 0, Dim: 1},
				{Kind: FaultLink, From: 0, Dim: 2},
				{Kind: FaultLink, From: 0, Dim: 3},
				// And fail-stop one of the reliable op's destinations.
				{Kind: FaultNode, Node: 13},
			},
		}
	}
	res, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range res.Ops {
		d := op.Delivery
		if d == nil {
			t.Fatalf("op %d: no delivery accounting on a faulted scenario", i)
		}
		if d.Delivered+d.Failed != d.Dests {
			t.Errorf("op %d: delivered %d + failed %d != dests %d", i, d.Delivered, d.Failed, d.Dests)
		}
	}
	plain, ft := res.Ops[0].Delivery, res.Ops[1].Delivery
	if plain.Dests != 7 || plain.Delivered != 0 || plain.Failed != 7 {
		t.Errorf("severed plain multicast: %+v, want 0/7 delivered", plain)
	}
	if plain.Retries != 0 {
		t.Errorf("plain multicast retried %d times; it has no retry protocol", plain.Retries)
	}
	if ft.Dests != 5 || ft.Delivered != 4 || ft.Failed != 1 {
		t.Errorf("fault-tolerant multicast: %+v, want 4/5 delivered (node 13 dead)", ft)
	}
	if ft.Retries == 0 {
		t.Error("fault-tolerant multicast reached a dead node without retrying")
	}

	res2, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Error("identical faulted specs diverged")
	}
}

// TestFaultIsolationInvariant is the blast-radius regression: faults
// confined to one 4-subcube of a 6-cube must leave the delay fields of
// ops running in the other three subcubes byte-identical to the
// completely unfaulted run — fault handling may not perturb traffic it
// cannot touch.
func TestFaultIsolationInvariant(t *testing.T) {
	groups, roots := subcubeGroups()
	mk := func() *Spec {
		spec := &Spec{Dim: 6}
		for g := range groups {
			var dests []int
			for _, v := range groups[g] {
				if v != roots[g] {
					dests = append(dests, v)
				}
			}
			spec.Ops = append(spec.Ops, Op{Kind: KindMulticast, Src: roots[g], Dests: dests, Bytes: 2048})
		}
		return spec
	}
	clean, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}

	faulted := mk()
	// Kill subcube 0's root outright: every arc out of node 0 inside the
	// subcube (dims 0..3) drops from t=0.
	for dim := 0; dim < 4; dim++ {
		faulted.Faults = append(faulted.Faults, FaultEvent{Kind: FaultLink, From: 0, Dim: dim})
	}
	fres, err := Run(faulted)
	if err != nil {
		t.Fatal(err)
	}

	if d := fres.Ops[0].Delivery; d == nil || d.Delivered != 0 || d.Failed != 15 {
		t.Errorf("subcube 0 op should lose all 15 dests, got %+v", fres.Ops[0].Delivery)
	}
	for g := 1; g < 4; g++ {
		got, want := fres.Ops[g], clean.Ops[g]
		got.Delivery = nil // accounting is faulted-run-only by design
		if !reflect.DeepEqual(got, want) {
			t.Errorf("subcube %d op perturbed by disjoint faults:\n got %+v\nwant %+v", g, got, want)
		}
		if d := fres.Ops[g].Delivery; d == nil || d.Delivered != 15 || d.Failed != 0 {
			t.Errorf("subcube %d delivery accounting: %+v, want 15/15", g, fres.Ops[g].Delivery)
		}
	}
}

// TestFaultFreeResultsCarryNoDelivery: without a fault schedule no op
// reports delivery accounting — the fault-free result shape (and hence
// its cached JSON) is bit-for-bit what it was before faults existed.
func TestFaultFreeResultsCarryNoDelivery(t *testing.T) {
	spec := &Spec{Dim: 4, Ops: []Op{
		{Kind: KindMulticast, Src: 0, Dests: []int{1, 2, 3}, Bytes: 256},
		{Kind: KindFTMulticast, Src: 4, Dests: []int{5, 6}, Bytes: 256, AtUS: farApartUS},
	}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range res.Ops {
		if op.Delivery != nil {
			t.Errorf("op %d: delivery accounting %+v on a fault-free run", i, op.Delivery)
		}
	}
}

// TestChaosSweepDeterministic: the degradation surfaces render
// byte-identically across runs of the same config, and a healthy column
// is exactly 1 / 1 / 0 across the board.
func TestChaosSweepDeterministic(t *testing.T) {
	cfg := Grid{
		Dim:         4,
		RatesPerMS:  []float64{0.25, 0.5},
		FaultCounts: []int{0, 2},
		Ops:         8,
		Bytes:       1024,
		Seed:        17,
	}
	t1, err := cfg.Tables(&Degradation)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := cfg.Tables(&Degradation)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"delivered", "inflation", "retry"} {
		if a, b := t1[i].Render(), t2[i].Render(); a != b {
			t.Errorf("%s surface diverged across identical sweeps:\n%s\n----\n%s", name, a, b)
		}
	}
	for i, name := range []string{"delivered", "inflation", "retry"} {
		want := 1.0
		if name == "retry" {
			want = 0
		}
		for ri, row := range t1[i].Rows {
			if row.Cells[0] != want {
				t.Errorf("%s row %d: healthy column %g, want %g", name, ri, row.Cells[0], want)
			}
		}
	}

	// Without a k=0 column the healthy baseline still runs, unlisted:
	// every surface of the k=2 column is unchanged.
	cfg.FaultCounts = []int{2}
	t3, err := cfg.Tables(&Degradation)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"delivered", "inflation", "retry"} {
		if len(t3[i].Columns) != 1 {
			t.Fatalf("%s: columns %v, want [k=2]", name, t3[i].Columns)
		}
		for ri, row := range t3[i].Rows {
			if got, want := row.Cells[0], t1[i].Rows[ri].Cells[1]; got != want {
				t.Errorf("%s row %d: k=2 without a listed baseline %g, with one %g", name, ri, got, want)
			}
		}
	}
}
