package eval

import (
	"reflect"
	"testing"

	"pmedic/internal/scenario"
)

// referenceInstances compiles every case sequentially, each with a fresh
// DeltaState — a full gather per case, so no result depends on the case
// before it. It is the reference the chained, parallel engine is held to.
func referenceInstances(t *testing.T, ctx *scenario.Context, combos [][]int) []*scenario.Instance {
	t.Helper()
	out := make([]*scenario.Instance, len(combos))
	for i, set := range combos {
		inst, err := ctx.BuildDeltaCase(set, new(scenario.DeltaState))
		if err != nil {
			t.Fatalf("reference case %v: %v", set, err)
		}
		out[i] = inst
	}
	return out
}

// TestSweepDeterminism is the sweep engine's acceptance gate: a sweep must
// produce the same CaseResult slice — same case order, same instances, same
// reports, same cached statistics — as a sequential evaluation of
// independently compiled cases, no matter how many workers run it and how
// its Gray chains are cut, and repeated parallel runs must agree with each
// other. Only the wall-clock Runtime fields are exempt, and they are zeroed
// before comparing.
func TestSweepDeterminism(t *testing.T) {
	dep, flows := fixtures(t)
	zeroRuntimes := func(cases []*CaseResult) {
		for _, c := range cases {
			for _, rep := range c.Reports {
				rep.Runtime = 0
			}
		}
	}
	run := func(workers int) []*CaseResult {
		t.Helper()
		cases, err := SweepOpts(dep, flows, 2, heuristics(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		zeroRuntimes(cases)
		return cases
	}

	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	combos := scenario.Combinations(len(dep.Controllers), 2)
	reference := make([]*CaseResult, len(combos))
	for i, inst := range referenceInstances(t, ctx, combos) {
		if reference[i], err = evalCase(inst, combos[i], heuristics()); err != nil {
			t.Fatal(err)
		}
	}
	zeroRuntimes(reference)
	if len(reference) != 15 {
		t.Fatalf("2-failure sweep produced %d cases, want 15", len(reference))
	}
	for _, workers := range []int{1, 3, 8} {
		got := run(workers)
		for i := range reference {
			if !reflect.DeepEqual(reference[i], got[i]) {
				t.Errorf("case %d (%s): Workers=%d differs from the sequential reference",
					i, reference[i].Label, workers)
			}
		}
	}
	again := run(8)
	delta := run(8)
	for i := range delta {
		if !reflect.DeepEqual(delta[i], again[i]) {
			t.Errorf("case %d (%s): two Workers=8 runs differ", i, delta[i].Label)
		}
	}
}

// TestForEachCaseEquivalence compares the instances themselves (not just
// the evaluated reports) between the chained delta engine and independently
// compiled cases, over the mixed-size case enumeration the plan-store
// compiler uses, at several worker counts. CI runs it under -race before the
// bench gate.
func TestForEachCaseEquivalence(t *testing.T) {
	dep, flows := fixtures(t)
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	combos := scenario.CombinationsUpTo(len(dep.Controllers), 3)
	want := referenceInstances(t, ctx, combos)
	for _, workers := range []int{1, 2, 8} {
		got := make([]*scenario.Instance, len(combos))
		err := ForEachCase(ctx, combos, workers, func(idx int, inst *scenario.Instance) error {
			got[idx] = inst
			return nil
		})
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("case %v: engine instance (Workers=%d) differs from the reference", combos[i], workers)
			}
		}
	}
}

// TestSweepOptsSharedContext reuses one context across sweeps of different k
// and checks the engine against the context-free path.
func TestSweepOptsSharedContext(t *testing.T) {
	dep, flows := fixtures(t)
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 2; k++ {
		plain, err := Sweep(dep, flows, k, heuristics())
		if err != nil {
			t.Fatal(err)
		}
		shared, err := SweepOpts(dep, flows, k, heuristics(), Options{Context: ctx, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) != len(shared) {
			t.Fatalf("k=%d: %d vs %d cases", k, len(plain), len(shared))
		}
		for i := range plain {
			for _, cases := range [][]*CaseResult{plain, shared} {
				for _, rep := range cases[i].Reports {
					rep.Runtime = 0
				}
			}
			if !reflect.DeepEqual(plain[i], shared[i]) {
				t.Errorf("k=%d case %d (%s): shared-context result differs", k, i, plain[i].Label)
			}
		}
	}
}
