package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleEta and oracleFactor are the eta file as it was before the
// arena: every eta owns its rows and vals. The oracle builds and applies
// its file with its own code, so it shares no entry building, drop
// tolerance or application logic with the factor under test.
type oracleEta struct {
	p    int32
	diag float64
	rows []int32
	vals []float64
}

type oracleFactor struct {
	etas []oracleEta
	// scratch buffers reused across calls.
	dense []float64
}

func (e *oracleFactor) scratch(m int) []float64 {
	if cap(e.dense) < m {
		e.dense = make([]float64, m)
	}
	buf := e.dense[:m]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// refactorizeOracle is the dense-scan refactorization the sparse one
// replaced, kept verbatim as its reference: every column is scattered into
// a dense m-vector, the whole eta file is applied to it, and the pivot
// search and eta construction scan all m rows.
func (e *oracleFactor) refactorizeOracle(s *simplex) error {
	m := s.m
	e.etas = e.etas[:0]
	// Process basis columns sparsest-first (deterministic tiebreak on
	// position) — short columns early keep the partial products sparse.
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := s.basis[order[a]], s.basis[order[b]]
		na := s.colPtr[va+1] - s.colPtr[va]
		nb := s.colPtr[vb+1] - s.colPtr[vb]
		if na != nb {
			return na < nb
		}
		return order[a] < order[b]
	})
	used := make([]bool, m)
	newBasis := make([]int, m)
	work := e.scratch(m)
	for _, pos := range order {
		v := s.basis[pos]
		// work = (E_t ··· E_1) A_v with the etas built so far.
		for i := range work {
			work[i] = 0
		}
		rows, vals := s.col(v)
		for k, r := range rows {
			work[r] = vals[k]
		}
		e.apply(work)
		// Pivot on the largest remaining row (stability; smallest index on
		// ties for determinism).
		p := -1
		best := 0.0
		for r := 0; r < m; r++ {
			if used[r] {
				continue
			}
			if a := math.Abs(work[r]); a > best {
				best, p = a, r
			}
		}
		if p < 0 || best < 1e-11 {
			return fmt.Errorf("%w: singular basis at position %d", errNumerical, pos)
		}
		e.push(p, work)
		used[p] = true
		newBasis[p] = v
	}
	copy(s.basis, newBasis)
	return nil
}

// push appends the eta eliminating column direction work with pivot row p.
func (e *oracleFactor) push(p int, work []float64) {
	inv := 1 / work[p]
	et := oracleEta{p: int32(p), diag: inv}
	for r, a := range work {
		if r == p || a == 0 {
			continue
		}
		val := -a * inv
		if math.Abs(val) < dropTol {
			continue
		}
		et.rows = append(et.rows, int32(r))
		et.vals = append(et.vals, val)
	}
	e.etas = append(e.etas, et)
}

// apply multiplies x by the eta product in order: x ← E_k ··· E_1 x.
func (e *oracleFactor) apply(x []float64) {
	for idx := range e.etas {
		et := &e.etas[idx]
		xp := x[et.p]
		if xp == 0 {
			continue
		}
		x[et.p] = et.diag * xp
		for k, r := range et.rows {
			x[r] += et.vals[k] * xp
		}
	}
}

// basisKind selects the shape of a generated basis.
type basisKind int

const (
	slackHeavy    basisKind = iota // most rows keep their ±1 slack
	allStructural                  // no slack or artificial column
	eqArtificials                  // EQ rows carry ±1 artificials, the rest slacks
	twoSingletons                  // two singletons on one row: singular
	tinyPivot                      // a column whose pivot ends below 1e-11
	unitEntries                    // every entry ±1, as in the FMSSM rows: pivot ties
	numBasisKinds
)

func (k basisKind) String() string {
	return [...]string{"slack-heavy", "all-structural", "eq-artificials", "two-singletons", "tiny-pivot", "unit-entries"}[k]
}

// randomColumn draws a column with 1..maxN distinct rows, ascending, as the
// CSC compiler stores them. Values mix ±1, small integers, arbitrary floats
// and entries so small their eliminations fall under dropTol. When home is
// a row, the column holds a large entry there; giving each filler column
// its own home row keeps most generated bases nonsingular. A unit column
// has only ±1 entries.
func randomColumn(rng *rand.Rand, m, maxN, home int, unit bool) ([]int32, []float64) {
	n := 1 + rng.Intn(maxN)
	picked := rng.Perm(m)[:n]
	if home >= 0 && !slices.Contains(picked, home) {
		picked[0] = home
	}
	slices.Sort(picked)
	rows := make([]int32, n)
	vals := make([]float64, n)
	for k, r := range picked {
		rows[k] = int32(r)
		switch {
		case unit:
			vals[k] = float64(1 - 2*rng.Intn(2))
		case r == home:
			vals[k] = float64(100+rng.Intn(100)) * float64(1-2*rng.Intn(2))
		case rng.Intn(6) == 0:
			vals[k] = 1
		case rng.Intn(5) == 0:
			vals[k] = -1
		case rng.Intn(4) == 0:
			vals[k] = float64(rng.Intn(41) - 20)
		case rng.Intn(3) == 0:
			vals[k] = 1e-14 * float64(1+rng.Intn(9))
		default:
			vals[k] = rng.NormFloat64() * 10
		}
	}
	return rows, vals
}

// randomBasis builds a simplex holding just what refactorization reads: m,
// the CSC columns and a basis of m distinct columns in shuffled positions.
func randomBasis(rng *rand.Rand, kind basisKind) *simplex {
	m := 1 + rng.Intn(40)
	if kind == twoSingletons || kind == tinyPivot {
		m = 2 + rng.Intn(39)
	}
	var cols [][]int32
	var colVals [][]float64
	add := func(rows []int32, vals []float64) {
		cols = append(cols, rows)
		colVals = append(colVals, vals)
	}
	singleton := func(r int, v float64) { add([]int32{int32(r)}, []float64{v}) }
	sign := func() float64 { return float64(1 - 2*rng.Intn(2)) }
	maxN := 1 + rng.Intn(min(m, 8))
	if rng.Intn(8) == 0 {
		maxN = m // an occasional dense column
	}
	switch kind {
	case slackHeavy:
		for r := 0; r < m; r++ {
			if rng.Intn(10) < 7 {
				singleton(r, sign())
			}
		}
	case eqArtificials:
		// A third of the rows are EQ rows (no slack) carrying their crash
		// artificial, a third keep their slack, the rest are covered by
		// structural columns.
		for r := 0; r < m; r++ {
			if rng.Intn(3) != 2 {
				singleton(r, sign())
			}
		}
	case twoSingletons:
		r := rng.Intn(m)
		singleton(r, sign())
		singleton(r, float64(1+rng.Intn(5))*sign())
	case tinyPivot:
		if rng.Intn(2) == 0 {
			singleton(rng.Intn(m), 1e-12*sign())
		} else {
			// A column and a copy perturbed below the pivot tolerance on one
			// of its rows: after the first is eliminated, the second's
			// largest remaining entry is ~1e-12.
			rows, vals := randomColumn(rng, m, maxN, -1, false)
			twin := append([]float64(nil), vals...)
			twin[rng.Intn(len(twin))] += 1e-12
			add(rows, vals)
			add(rows, twin)
		}
	}
	// The kind's defining columns are all basic; filler columns, each with
	// its own home row where one is left, complete the basis.
	defining := len(cols)
	covered := make([]bool, m)
	for _, rows := range cols {
		covered[rows[0]] = true
	}
	var homes []int
	for r, c := range covered {
		if !c {
			homes = append(homes, r)
		}
	}
	rng.Shuffle(len(homes), func(a, b int) { homes[a], homes[b] = homes[b], homes[a] })
	for len(cols) < m {
		home := -1
		if len(homes) > 0 && rng.Intn(50) != 0 {
			home, homes = homes[0], homes[1:]
		}
		add(randomColumn(rng, m, maxN, home, kind == unitEntries))
	}
	for extra := rng.Intn(4); extra > 0; extra-- {
		add(randomColumn(rng, m, maxN, -1, kind == unitEntries))
	}
	s := &simplex{m: m, colPtr: []int32{0}}
	for v := range cols {
		s.rowIdx = append(s.rowIdx, cols[v]...)
		s.colVal = append(s.colVal, colVals[v]...)
		s.colPtr = append(s.colPtr, int32(len(s.rowIdx)))
	}
	// Basis: the first m columns in shuffled positions; now and then a
	// homeless spare replaces a filler, which is often singular.
	s.basis = rng.Perm(m)
	if len(cols) > m && defining < m && rng.Intn(4) == 0 {
		for pos, v := range s.basis {
			if v >= defining {
				s.basis[pos] = m + rng.Intn(len(cols)-m)
				break
			}
		}
	}
	return s
}

// etaFile returns an eta factor's file entry by entry.
type etaEntry struct {
	p    int32
	diag uint64
	rows []int32
	vals []uint64
}

func etaFile(e *etaFactor) []etaEntry {
	out := make([]etaEntry, len(e.etas))
	for i, et := range e.etas {
		out[i] = etaEntry{p: et.p, diag: math.Float64bits(et.diag), rows: e.rows[et.start:et.end], vals: bitsOf(e.vals[et.start:et.end])}
	}
	return out
}

func oracleEtaFile(e *oracleFactor) []etaEntry {
	out := make([]etaEntry, len(e.etas))
	for i, et := range e.etas {
		out[i] = etaEntry{p: et.p, diag: math.Float64bits(et.diag), rows: et.rows, vals: bitsOf(et.vals)}
	}
	return out
}

func bitsOf(vals []float64) []uint64 {
	var out []uint64
	for _, v := range vals {
		out = append(out, math.Float64bits(v))
	}
	return out
}

func sameEtaFile(a, b []etaEntry) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d etas vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].p != b[i].p || a[i].diag != b[i].diag ||
			!slices.Equal(a[i].rows, b[i].rows) || !slices.Equal(a[i].vals, b[i].vals) {
			return fmt.Sprintf("eta %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestRefactorizeMatchesOracle pins the sparse refactorization to the dense
// scan bit for bit over random bases: the same eta file (pivot rows,
// diagonals, entry rows in order, entry values), the same permuted basis
// and the same error text. One factor serves every basis, with pivots
// pushed between refactorizations, so the reused scratch and arena are
// exercised across sizes and after failures.
func TestRefactorizeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var sparse etaFactor
	const trials = 600
	var failures [numBasisKinds]int
	for trial := 0; trial < trials; trial++ {
		kind := basisKind(trial % int(numBasisKinds))
		s := randomBasis(rng, kind)
		o := *s
		o.basis = append([]int(nil), s.basis...)
		var oracle oracleFactor

		got := sparse.refactorize(s)
		want := oracle.refactorizeOracle(&o)
		if errText(got) != errText(want) {
			t.Fatalf("trial %d (%v, m=%d): error %q, oracle %q", trial, kind, s.m, errText(got), errText(want))
		}
		if diff := sameEtaFile(etaFile(&sparse), oracleEtaFile(&oracle)); diff != "" {
			t.Fatalf("trial %d (%v, m=%d): eta file differs: %s", trial, kind, s.m, diff)
		}
		if !slices.Equal(s.basis, o.basis) {
			t.Fatalf("trial %d (%v, m=%d): basis %v, oracle %v", trial, kind, s.m, s.basis, o.basis)
		}
		if got != nil {
			failures[kind]++
			continue
		}
		// Simplex pivots append to the file between refactorizations.
		for k := rng.Intn(3); k > 0; k-- {
			alpha := make([]float64, s.m)
			sparse.ftran(s, s.basis[rng.Intn(s.m)], alpha)
			if p := rng.Intn(s.m); alpha[p] != 0 {
				sparse.push(p, alpha)
			}
		}
	}
	if failures[twoSingletons] != trials/int(numBasisKinds) {
		t.Fatalf("%d of %d two-singleton bases failed, want all", failures[twoSingletons], trials/int(numBasisKinds))
	}
	if failures[tinyPivot] == 0 {
		t.Fatal("no tiny-pivot basis failed")
	}
	factorized := trials
	for _, n := range failures {
		factorized -= n
	}
	t.Logf("singular bases by kind %v; %d factorized", failures, factorized)
	if factorized < 250 {
		t.Fatalf("only %d of %d bases factorized", factorized, trials)
	}
}
