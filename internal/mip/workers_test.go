package mip

import (
	"math"
	"math/rand"
	"testing"

	"pmedic/internal/lp"
)

// buildRandomBinary constructs a random binary program with nv variables and
// a handful of knapsack-style rows.
func buildRandomBinary(rng *rand.Rand, nv int) *Model {
	m := NewModel(lp.Maximize)
	for v := 0; v < nv; v++ {
		m.AddBinary(float64(rng.Intn(31)-10), "")
	}
	nr := 2 + rng.Intn(5)
	for r := 0; r < nr; r++ {
		terms := make([]lp.Term, 0, nv)
		for v := 0; v < nv; v++ {
			c := float64(rng.Intn(9) - 3)
			if c != 0 {
				terms = append(terms, lp.Term{Var: v, Coeff: c})
			}
		}
		op := lp.LE
		if rng.Intn(3) == 0 {
			op = lp.GE
		}
		rhs := float64(rng.Intn(int(2+math.Sqrt(float64(nv)))*4) - 2)
		if err := m.AddRow(op, rhs, terms...); err != nil {
			panic(err)
		}
	}
	return m
}

// TestWorkersDeterminism pins the bulk-synchronous search: for the same
// model and node budget, Workers=1 and Workers=8 must produce the same
// status, objective, incumbent, node count, bound, and simplex work
// counters. TimeLimit is zero so the node budget is the only stop. Run in
// CI under -race.
func TestWorkersDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	totalIters := 0
	for trial := 0; trial < 40; trial++ {
		nv := 6 + rng.Intn(14)
		m := buildRandomBinary(rng, nv)
		// Alternate between exhaustive runs and tight budgets so both the
		// Optimal and Feasible/Unknown paths are compared.
		maxNodes := 0
		if trial%2 == 1 {
			maxNodes = 1 + rng.Intn(20)
		}
		var results [2]*Result
		for i, workers := range []int{1, 8} {
			res, err := m.Solve(Options{Workers: workers, MaxNodes: maxNodes})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			results[i] = res
		}
		a, b := results[0], results[1]
		if a.Status != b.Status {
			t.Fatalf("trial %d: status %v (1 worker) vs %v (8 workers)", trial, a.Status, b.Status)
		}
		if a.Nodes != b.Nodes {
			t.Fatalf("trial %d: nodes %d vs %d", trial, a.Nodes, b.Nodes)
		}
		if a.Objective != b.Objective {
			t.Fatalf("trial %d: objective %v vs %v", trial, a.Objective, b.Objective)
		}
		if a.Bound != b.Bound {
			t.Fatalf("trial %d: bound %v vs %v", trial, a.Bound, b.Bound)
		}
		if a.LPIters != b.LPIters || a.Refactors != b.Refactors {
			t.Fatalf("trial %d: LP iterations %d vs %d, refactorizations %d vs %d",
				trial, a.LPIters, b.LPIters, a.Refactors, b.Refactors)
		}
		if a.Nodes > 0 && a.Refactors == 0 {
			t.Fatalf("trial %d: %d nodes solved without a refactorization", trial, a.Nodes)
		}
		totalIters += a.LPIters
		if len(a.X) != len(b.X) {
			t.Fatalf("trial %d: incumbent lengths %d vs %d", trial, len(a.X), len(b.X))
		}
		for v := range a.X {
			if a.X[v] != b.X[v] {
				t.Fatalf("trial %d: incumbent differs at var %d: %v vs %v", trial, v, a.X[v], b.X[v])
			}
		}
	}
	if totalIters == 0 {
		t.Fatal("no simplex iterations counted")
	}
}

// TestWorkersMatchExhaustive checks the parallel search still proves optima:
// Workers=8 against brute-force enumeration on small binaries.
func TestWorkersMatchExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		nv := 3 + rng.Intn(8)
		m := buildRandomBinary(rng, nv)
		res, err := m.Solve(Options{Workers: 8})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		best := math.Inf(-1)
		for mask := 0; mask < 1<<nv; mask++ {
			x := make([]float64, nv)
			for v := 0; v < nv; v++ {
				if mask&(1<<v) != 0 {
					x[v] = 1
				}
			}
			if obj, ok := m.checkPoint(x, zeros(nv), ones(nv), 1e-6); ok && obj > best {
				best = obj
			}
		}
		if math.IsInf(best, -1) {
			if res.Status != StatusInfeasible {
				t.Fatalf("trial %d: got %v, want infeasible", trial, res.Status)
			}
			continue
		}
		if res.Status != StatusOptimal {
			t.Fatalf("trial %d: got %v, want optimal", trial, res.Status)
		}
		if math.Abs(res.Objective-best) > 1e-6 {
			t.Fatalf("trial %d: objective %v, brute force %v", trial, res.Objective, best)
		}
	}
}

func zeros(n int) []float64 { return make([]float64, n) }

func ones(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}
