package scenario

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestBuildDeltaMatchesBuild is the delta compiler's acceptance gate: over a
// long randomized chain of failure-set mutations — single swaps, grows,
// shrinks, and arbitrary jumps — every BuildDeltaCase/BuildDelta result must
// be DeepEqual to buildOracle's scratch compile of the same set, field for
// field, down to the Problem's finalized CSR indexes.
func TestBuildDeltaMatchesBuild(t *testing.T) {
	dep, flows := contextFixtures(t)
	ctx, err := NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	m := len(dep.Controllers)
	rng := rand.New(rand.NewSource(7))
	st := &DeltaState{}

	randomSet := func(k int) []int {
		perm := rng.Perm(m)
		set := append([]int(nil), perm[:k]...)
		return set
	}

	check := func(step int, got *Instance, gotErr error, failed []int) *Instance {
		t.Helper()
		want, wantErr := ctx.buildOracle(failed)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("step %d %v: delta err = %v, scratch err = %v", step, failed, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("step %d %v: delta err %q, scratch err %q", step, failed, gotErr, wantErr)
			}
			return nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: BuildDeltaCase(%v) differs from buildOracle", step, failed)
		}
		return got
	}

	cur := randomSet(1 + rng.Intn(3))
	inst, err := ctx.BuildDeltaCase(cur, st)
	prev := check(0, inst, err, cur)

	for step := 1; step <= 250; step++ {
		switch op := rng.Intn(10); {
		case op < 5 && prev != nil && len(cur) < m-1:
			// Single swap via the BuildDelta wrapper.
			removed := cur[rng.Intn(len(cur))]
			added := -1
			for _, j := range rng.Perm(m) {
				if !contains(cur, j) {
					added = j
					break
				}
			}
			next := replaceOne(cur, removed, added)
			inst, err := ctx.BuildDelta(prev, removed, added, st)
			if got := check(step, inst, err, next); got != nil {
				prev, cur = got, next
			}
		case op < 6 && prev != nil && len(cur) < m-2:
			// Grow (cascade-style): removed == -1.
			added := -1
			for _, j := range rng.Perm(m) {
				if !contains(cur, j) {
					added = j
					break
				}
			}
			next := append(append([]int(nil), cur...), added)
			inst, err := ctx.BuildDelta(prev, -1, added, st)
			if got := check(step, inst, err, next); got != nil {
				prev, cur = got, next
			}
		case op < 7 && prev != nil && len(cur) > 1:
			// Shrink (fail-back): added == -1.
			removed := cur[rng.Intn(len(cur))]
			next := replaceOne(cur, removed, -1)
			inst, err := ctx.BuildDelta(prev, removed, -1, st)
			if got := check(step, inst, err, next); got != nil {
				prev, cur = got, next
			}
		default:
			// Arbitrary jump: BuildDeltaCase diffs from whatever st holds.
			next := randomSet(1 + rng.Intn(m-1))
			inst, err := ctx.BuildDeltaCase(next, st)
			if got := check(step, inst, err, next); got != nil {
				prev, cur = got, next
			}
		}
	}
}

func contains(set []int, v int) bool {
	for _, x := range set {
		if x == v {
			return true
		}
	}
	return false
}

// replaceOne returns set with removed taken out and added (if >= 0) appended.
func replaceOne(set []int, removed, added int) []int {
	out := make([]int, 0, len(set)+1)
	for _, j := range set {
		if j != removed {
			out = append(out, j)
		}
	}
	if added >= 0 {
		out = append(out, added)
	}
	return out
}

// TestBuildDeltaValidation checks that invalid failure specs surface
// buildOracle's exact errors without corrupting the chain state: after each rejected case
// the chain still compiles the next valid case correctly.
func TestBuildDeltaValidation(t *testing.T) {
	dep, flows := contextFixtures(t)
	ctx, err := NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	m := len(dep.Controllers)
	st := &DeltaState{}
	valid := []int{0, 2}
	if _, err := ctx.BuildDeltaCase(valid, st); err != nil {
		t.Fatal(err)
	}
	all := make([]int, m)
	for i := range all {
		all[i] = i
	}
	invalid := [][]int{nil, {}, {-1}, {m}, {0, 0}, all}
	for _, failed := range invalid {
		_, deltaErr := ctx.BuildDeltaCase(failed, st)
		_, buildErr := ctx.buildOracle(failed)
		if deltaErr == nil || buildErr == nil {
			t.Fatalf("BuildDeltaCase(%v): err = %v, oracle err = %v; want both non-nil", failed, deltaErr, buildErr)
		}
		if deltaErr.Error() != buildErr.Error() {
			t.Errorf("BuildDeltaCase(%v) err %q, oracle err %q", failed, deltaErr, buildErr)
		}
		// The chain survives the rejected case.
		got, err := ctx.BuildDeltaCase([]int{1, 3}, st)
		if err != nil {
			t.Fatalf("after invalid %v: %v", failed, err)
		}
		want, err := ctx.buildOracle([]int{1, 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("after invalid %v: chain state corrupted", failed)
		}
	}
}

// TestBuildDeltaContextSwitch reuses one DeltaState across two Contexts (the
// pooled-scratch pattern of the sweep engine) and checks the state resets.
func TestBuildDeltaContextSwitch(t *testing.T) {
	dep, flows := contextFixtures(t)
	ctxA, err := NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	ctxB, err := NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	st := &DeltaState{}
	if _, err := ctxA.BuildDeltaCase([]int{0, 1}, st); err != nil {
		t.Fatal(err)
	}
	got, err := ctxB.BuildDeltaCase([]int{2, 4}, st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ctxB.buildOracle([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("DeltaState reused across Contexts produced a different instance")
	}
}
