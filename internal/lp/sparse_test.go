package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomModel generates a bounded LP that is feasible by construction about
// half the time (random RHS otherwise, so infeasible instances are also
// exercised), with controllable size and sparsity.
func randomModel(rng *rand.Rand, nv, nr int) *Model {
	m := NewModel(Maximize)
	point := make([]float64, nv)
	for v := 0; v < nv; v++ {
		ub := float64(1 + rng.Intn(9))
		if rng.Intn(4) == 0 {
			ub = math.Inf(1)
		}
		obj := float64(rng.Intn(21) - 10)
		if math.IsInf(ub, 1) && obj > 0 && rng.Intn(2) == 0 {
			obj = -obj // keep unbounded objectives rare but present
		}
		m.AddVar(0, ub, obj, "")
		hi := ub
		if math.IsInf(hi, 1) {
			hi = 6
		}
		point[v] = hi * rng.Float64()
	}
	for r := 0; r < nr; r++ {
		terms := make([]Term, 0, nv)
		val := 0.0
		for v := 0; v < nv; v++ {
			if rng.Intn(3) != 0 { // ~2/3 sparsity
				continue
			}
			c := float64(rng.Intn(11) - 5)
			if c == 0 {
				continue
			}
			terms = append(terms, Term{v, c})
			val += c * point[v]
		}
		if len(terms) == 0 {
			continue
		}
		var op Op
		var rhs float64
		switch rng.Intn(4) {
		case 0:
			op, rhs = LE, val+rng.Float64()*3
		case 1:
			op, rhs = GE, val-rng.Float64()*3
		case 2:
			op, rhs = EQ, val
		default:
			// Arbitrary RHS: possibly infeasible.
			op = []Op{LE, GE, EQ}[rng.Intn(3)]
			rhs = float64(rng.Intn(21) - 10)
		}
		if err := m.AddRow(op, rhs, terms...); err != nil {
			panic(err)
		}
	}
	return m
}

// checkFeasible verifies x against the model's bounds and rows.
func checkFeasible(t *testing.T, m *Model, x []float64, label string) {
	t.Helper()
	const tol = 1e-6
	for v := range m.obj {
		if x[v] < m.lower[v]-tol || x[v] > m.upper[v]+tol {
			t.Fatalf("%s: x[%d]=%v outside [%v, %v]", label, v, x[v], m.lower[v], m.upper[v])
		}
	}
	for ri, r := range m.rows {
		val := 0.0
		for _, tm := range r.terms {
			val += tm.Coeff * x[tm.Var]
		}
		switch r.op {
		case LE:
			if val > r.rhs+tol {
				t.Fatalf("%s: row %d: %v > %v", label, ri, val, r.rhs)
			}
		case GE:
			if val < r.rhs-tol {
				t.Fatalf("%s: row %d: %v < %v", label, ri, val, r.rhs)
			}
		case EQ:
			if math.Abs(val-r.rhs) > tol {
				t.Fatalf("%s: row %d: %v != %v", label, ri, val, r.rhs)
			}
		}
	}
}

// TestSparseDenseEquivalence pins the eta-file engine to the dense explicit
// inverse on generated LPs: identical statuses, objectives within tolerance,
// and both returned points feasible. The two engines may land on different
// optimal vertices, so X is checked for feasibility, not equality.
func TestSparseDenseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 250; trial++ {
		nv := 1 + rng.Intn(12)
		nr := rng.Intn(15)
		m := randomModel(rng, nv, nr)
		dense, err := m.SolveWith(Options{Factorization: FactorDense})
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		sparse, err := m.SolveWith(Options{Factorization: FactorSparse})
		if err != nil {
			t.Fatalf("trial %d: sparse: %v", trial, err)
		}
		if dense.Status != sparse.Status {
			t.Fatalf("trial %d: dense %v vs sparse %v", trial, dense.Status, sparse.Status)
		}
		if dense.Status != StatusOptimal {
			continue
		}
		if math.Abs(dense.Objective-sparse.Objective) > 1e-6*(1+math.Abs(dense.Objective)) {
			t.Fatalf("trial %d: dense obj %v vs sparse obj %v", trial, dense.Objective, sparse.Objective)
		}
		checkFeasible(t, m, dense.X, "dense")
		checkFeasible(t, m, sparse.X, "sparse")
	}
}

// TestSparseDenseEquivalenceLarge drives the equivalence on LPs big enough
// that FactorAuto actually selects the eta path (m > denseCutoff).
func TestSparseDenseEquivalenceLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		nv := 40 + rng.Intn(40)
		nr := denseCutoff + 10 + rng.Intn(40)
		m := randomModel(rng, nv, nr)
		dense, err := m.SolveWith(Options{Factorization: FactorDense})
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		auto, err := m.SolveWith(Options{})
		if err != nil {
			t.Fatalf("trial %d: auto: %v", trial, err)
		}
		if dense.Status != auto.Status {
			t.Fatalf("trial %d: dense %v vs auto %v", trial, dense.Status, auto.Status)
		}
		if dense.Status == StatusOptimal &&
			math.Abs(dense.Objective-auto.Objective) > 1e-6*(1+math.Abs(dense.Objective)) {
			t.Fatalf("trial %d: dense obj %v vs auto obj %v", trial, dense.Objective, auto.Objective)
		}
	}
}

// TestWarmStartReuse solves, re-solves with the exported basis under the
// same and tightened bounds, and checks the warm solve agrees with a cold
// solve. A same-bounds warm re-solve must converge without any simplex
// pivots beyond pricing confirmation.
func TestWarmStartReuse(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar(0, 10, 3, "x")
	y := m.AddVar(0, 10, 5, "y")
	mustRow(t, m, LE, 4, Term{x, 1})
	mustRow(t, m, LE, 12, Term{y, 2})
	mustRow(t, m, LE, 18, Term{x, 3}, Term{y, 2})
	cold := solveOrFatal(t, m)
	wantStatus(t, cold, StatusOptimal)
	if cold.Basis == nil {
		t.Fatal("no exported basis at optimality")
	}

	warm, err := m.SolveWith(Options{Warm: cold.Basis})
	if err != nil {
		t.Fatalf("warm re-solve: %v", err)
	}
	wantStatus(t, warm, StatusOptimal)
	wantObj(t, warm, cold.Objective)
	if warm.Iters > 1 {
		t.Fatalf("same-bounds warm start took %d iterations, want <= 1", warm.Iters)
	}

	// Tighten a bound that keeps the parent basis feasible.
	if err := m.SetBounds(y, 0, 6); err != nil {
		t.Fatal(err)
	}
	warm2, err := m.SolveWith(Options{Warm: cold.Basis})
	if err != nil {
		t.Fatalf("warm tightened: %v", err)
	}
	cold2, err := m.SolveWith(Options{})
	if err != nil {
		t.Fatalf("cold tightened: %v", err)
	}
	if warm2.Status != cold2.Status {
		t.Fatalf("warm %v vs cold %v", warm2.Status, cold2.Status)
	}
	if math.Abs(warm2.Objective-cold2.Objective) > 1e-6 {
		t.Fatalf("warm obj %v vs cold obj %v", warm2.Objective, cold2.Objective)
	}
}

// TestWarmStartRandom cross-checks warm-started solves against cold solves
// under random bound tightenings, for both factorizations.
func TestWarmStartRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	for trial := 0; trial < 120; trial++ {
		nv := 2 + rng.Intn(10)
		nr := 1 + rng.Intn(10)
		m := randomModel(rng, nv, nr)
		fact := Factorization(trial % 3) // auto, dense, sparse round-robin
		base, err := m.SolveWith(Options{Factorization: fact})
		if err != nil {
			t.Fatalf("trial %d: base: %v", trial, err)
		}
		if base.Status != StatusOptimal || base.Basis == nil {
			continue
		}
		// Tighten one variable's bounds around an integer split of its value.
		v := rng.Intn(nv)
		lo, hi, _ := m.Bounds(v)
		if rng.Intn(2) == 0 {
			hi = math.Floor(base.X[v])
		} else {
			lo = math.Ceil(base.X[v])
		}
		if lo > hi {
			continue
		}
		if err := m.SetBounds(v, lo, hi); err != nil {
			t.Fatalf("trial %d: SetBounds: %v", trial, err)
		}
		warm, err := m.SolveWith(Options{Factorization: fact, Warm: base.Basis})
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		cold, err := m.SolveWith(Options{Factorization: fact})
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm %v vs cold %v", trial, warm.Status, cold.Status)
		}
		if warm.Status == StatusOptimal {
			if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("trial %d: warm obj %v vs cold obj %v", trial, warm.Objective, cold.Objective)
			}
			checkFeasible(t, m, warm.X, "warm")
		}
	}
}

// TestReusedWorkspaceMatchesFresh: a model compiles its matrix once and
// reuses one simplex's buffers and eta arena from solve to solve, and its
// clones share the compiled matrix. Every solve must still be bitwise the
// solve of a freshly built copy of the model — across bound changes, warm
// starts, rows added after a solve (which recompile) and clones.
func TestReusedWorkspaceMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	fresh := func(m *Model) *Model {
		cp := NewModel(m.sense)
		for v := range m.obj {
			cp.AddVar(m.lower[v], m.upper[v], m.obj[v], m.names[v])
		}
		for _, r := range m.rows {
			if err := cp.AddRow(r.op, r.rhs, r.terms...); err != nil {
				t.Fatal(err)
			}
		}
		return cp
	}
	same := func(label string, got, want *Solution) {
		t.Helper()
		if got.Status != want.Status || got.Iters != want.Iters || got.Refactors != want.Refactors ||
			math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || len(got.X) != len(want.X) {
			t.Fatalf("%s: got %v obj %v iters %d refactors %d, fresh %v obj %v iters %d refactors %d", label,
				got.Status, got.Objective, got.Iters, got.Refactors, want.Status, want.Objective, want.Iters, want.Refactors)
		}
		for v := range got.X {
			if math.Float64bits(got.X[v]) != math.Float64bits(want.X[v]) {
				t.Fatalf("%s: x[%d] = %v, fresh %v", label, v, got.X[v], want.X[v])
			}
		}
	}
	for trial := 0; trial < 60; trial++ {
		nv := 2 + rng.Intn(30)
		m := randomModel(rng, nv, 1+rng.Intn(70)) // both sides of denseCutoff
		var warm *Basis
		for step := 0; step < 5; step++ {
			switch rng.Intn(3) {
			case 0:
				v := rng.Intn(nv)
				lo, hi, _ := m.Bounds(v)
				if !math.IsInf(hi, 1) && hi > lo {
					hi = math.Floor((lo + hi) / 2)
				}
				if err := m.SetBounds(v, lo, hi); err != nil {
					t.Fatal(err)
				}
			case 1:
				v := rng.Intn(nv)
				if err := m.AddRow(LE, 3+float64(rng.Intn(10)), Term{v, 1}, Term{(v + 1) % nv, 1}); err != nil {
					t.Fatal(err)
				}
			}
			opts := Options{Warm: warm}
			got, err := m.SolveWith(opts)
			want, wantErr := fresh(m).SolveWith(opts)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("trial %d step %d: error %v, fresh %v", trial, step, err, wantErr)
			}
			if err != nil {
				continue
			}
			label := fmt.Sprintf("trial %d step %d", trial, step)
			same(label, got, want)
			clone, err := m.Clone().SolveWith(opts)
			if err != nil {
				t.Fatalf("%s: clone: %v", label, err)
			}
			same(label+" clone", clone, want)
			if got.Basis != nil {
				warm = got.Basis
			}
		}
	}
}
