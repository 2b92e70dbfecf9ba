package lp

import (
	"fmt"
	"math"
	"slices"
)

// factorizer is the basis-inverse representation behind the simplex: either
// a dense explicit inverse (tiny models) or a product-form eta file with
// sparse refactorization. Basis positions are identified with constraint
// rows; a factorizer's refactorize may permute s.basis to establish that
// identification.
type factorizer interface {
	// refactorize rebuilds the representation from s.basis. It may reorder
	// s.basis (the basis is a set; positions are representation-defined).
	// The caller recomputes xB afterwards.
	refactorize(s *simplex) error
	// ftran computes alpha = B⁻¹ A_v.
	ftran(s *simplex, v int, alpha []float64)
	// btran computes y = cb B⁻¹ (cb indexed by basis position).
	btran(s *simplex, cb, y []float64)
	// applyInv replaces x with B⁻¹ x.
	applyInv(s *simplex, x []float64)
	// update absorbs a pivot: basis position p is being replaced by the
	// variable whose pre-pivot direction is alpha (= B⁻¹ A_enter). It is
	// called before s.basis is rewritten.
	update(s *simplex, p int, alpha []float64) error
}

// --- dense explicit inverse ---

// denseFactor keeps B⁻¹ as a dense matrix, updated by Gauss-Jordan on each
// pivot and rebuilt by partial-pivoting elimination. O(m²) per pivot and
// O(m³) per refactorization — the right trade only for tiny models.
type denseFactor struct {
	binv [][]float64
}

func (d *denseFactor) refactorize(s *simplex) error {
	m := s.m
	// Build the dense basis matrix augmented with the identity.
	bmat := make([][]float64, m)
	for i := range bmat {
		bmat[i] = make([]float64, 2*m)
	}
	for pos, v := range s.basis {
		rows, vals := s.col(v)
		for k, r := range rows {
			bmat[r][pos] = vals[k]
		}
	}
	for i := 0; i < m; i++ {
		bmat[i][m+i] = 1
	}
	for c := 0; c < m; c++ {
		// Partial pivot.
		p := c
		for r := c + 1; r < m; r++ {
			if math.Abs(bmat[r][c]) > math.Abs(bmat[p][c]) {
				p = r
			}
		}
		if math.Abs(bmat[p][c]) < 1e-12 {
			return fmt.Errorf("%w: singular basis at column %d", errNumerical, c)
		}
		bmat[c], bmat[p] = bmat[p], bmat[c]
		inv := 1 / bmat[c][c]
		for j := c; j < 2*m; j++ {
			bmat[c][j] *= inv
		}
		for r := 0; r < m; r++ {
			if r == c {
				continue
			}
			f := bmat[r][c]
			if f == 0 {
				continue
			}
			for j := c; j < 2*m; j++ {
				bmat[r][j] -= f * bmat[c][j]
			}
		}
	}
	if d.binv == nil {
		d.binv = make([][]float64, m)
		for i := range d.binv {
			d.binv[i] = make([]float64, m)
		}
	}
	for i := 0; i < m; i++ {
		copy(d.binv[i], bmat[i][m:])
	}
	return nil
}

func (d *denseFactor) ftran(s *simplex, v int, alpha []float64) {
	for i := range alpha {
		alpha[i] = 0
	}
	rows, vals := s.col(v)
	for k, r := range rows {
		c := vals[k]
		row := int(r)
		for i := 0; i < s.m; i++ {
			alpha[i] += d.binv[i][row] * c
		}
	}
}

func (d *denseFactor) btran(s *simplex, cb, y []float64) {
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < s.m; i++ {
		c := cb[i]
		if c == 0 {
			continue
		}
		row := d.binv[i]
		for j := 0; j < s.m; j++ {
			y[j] += c * row[j]
		}
	}
}

func (d *denseFactor) applyInv(s *simplex, x []float64) {
	out := make([]float64, s.m)
	for i := 0; i < s.m; i++ {
		var sum float64
		row := d.binv[i]
		for j := 0; j < s.m; j++ {
			sum += row[j] * x[j]
		}
		out[i] = sum
	}
	copy(x, out)
}

func (d *denseFactor) update(s *simplex, p int, alpha []float64) error {
	// Gauss-Jordan on the entering direction: row p is scaled by 1/alpha_p,
	// every other row i is reduced by alpha_i times the new row p.
	pr := d.binv[p]
	inv := 1 / alpha[p]
	for j := 0; j < s.m; j++ {
		pr[j] *= inv
	}
	for i := 0; i < s.m; i++ {
		if i == p {
			continue
		}
		f := alpha[i]
		if f == 0 {
			continue
		}
		ri := d.binv[i]
		for j := 0; j < s.m; j++ {
			ri[j] -= f * pr[j]
		}
	}
	return nil
}

// --- product-form eta file ---

// eta is one elementary transformation: the matrix that equals the identity
// except in column p, where it holds diag on the diagonal and, on rows
// rows[start:end] of the owning etaFactor's arena, the matching vals. Rows
// are ascending, which fixes the summation order of applyT.
type eta struct {
	p          int32
	diag       float64
	start, end int32
}

// etaFactor represents B⁻¹ as a product of elementary matrices
// E_k ··· E_1 (the product-form inverse). FTRAN applies the etas in order,
// BTRAN in reverse; each application touches only the eta's nonzeros, so the
// cost tracks the basis's fill rather than m². Refactorization rebuilds the
// product by sparse Gauss-Jordan elimination over the basis columns,
// processing sparsest columns first and permuting s.basis so that basis
// positions coincide with pivot rows.
type etaFactor struct {
	etas []eta
	// rows/vals is the arena holding every eta's off-diagonal entries; it is
	// truncated, not freed, by refactorization.
	rows []int32
	vals []float64

	// Refactorization scratch, reused across calls. work is all zero
	// between columns; touched lists the rows a column may have made
	// nonzero (in[r] marks membership), so clearing, the pivot search and
	// eta construction cost the column's fill, not m.
	work     []float64
	touched  []int32
	in       []bool
	used     []bool
	order    []int32
	count    []int32
	newBasis []int
}

// dropTol discards eta entries smaller than this; they cannot influence a
// pivot decision above the solver tolerances but would accumulate fill.
const dropTol = 1e-13

// refactorize rebuilds the eta file from s.basis. It computes exactly what a
// dense elimination does — sparsest column first (ties by position), pivot
// on the largest remaining |entry| (smallest row on ties), entries below
// dropTol dropped — and stores each eta's rows in ascending order, so the
// file is bitwise the one the dense scan builds; it just skips the zeros.
func (e *etaFactor) refactorize(s *simplex) error {
	m := s.m
	e.reset(m)
	for _, pos := range e.sortByCount(s) {
		v := s.basis[pos]
		rows, vals := s.col(v)
		// work = (E_t ··· E_1) A_v with the etas built so far.
		for k, r := range rows {
			e.work[r] = vals[k]
			e.touch(r)
		}
		e.applyFile()
		// Pivot on the largest remaining row (stability; smallest index on
		// ties for determinism).
		p := int32(-1)
		best := 0.0
		for _, r := range e.touched {
			if e.used[r] {
				continue
			}
			if a := math.Abs(e.work[r]); a > best || (a == best && a > 0 && r < p) {
				best, p = a, r
			}
		}
		if p < 0 || best < 1e-11 {
			return fmt.Errorf("%w: singular basis at position %d", errNumerical, pos)
		}
		slices.Sort(e.touched)
		inv := 1 / e.work[p]
		start := int32(len(e.rows))
		for _, r := range e.touched {
			if r != p {
				e.appendEntry(r, e.work[r], inv)
			}
		}
		e.etas = append(e.etas, eta{p: p, diag: inv, start: start, end: int32(len(e.rows))})
		e.used[p] = true
		e.newBasis[p] = v
		e.clearWork()
	}
	copy(s.basis, e.newBasis)
	return nil
}

// reset empties the file and sizes the refactorization scratch for m rows.
func (e *etaFactor) reset(m int) {
	e.etas = e.etas[:0]
	e.rows = e.rows[:0]
	e.vals = e.vals[:0]
	e.work = resize(e.work, m)
	clear(e.work)
	e.in = resize(e.in, m)
	clear(e.in)
	e.used = resize(e.used, m)
	clear(e.used)
	e.order = resize(e.order, m)
	e.count = resize(e.count, m+2)
	e.newBasis = resize(e.newBasis, m)
	e.touched = e.touched[:0]
}

// sortByCount returns the basis positions ordered by their column's entry
// count, ties by position: a stable counting sort (a column has at most m
// entries once duplicates are merged).
func (e *etaFactor) sortByCount(s *simplex) []int32 {
	count := e.count
	clear(count)
	for _, v := range s.basis {
		count[s.colPtr[v+1]-s.colPtr[v]+1]++
	}
	for n := 1; n < len(count); n++ {
		count[n] += count[n-1]
	}
	for pos, v := range s.basis {
		n := s.colPtr[v+1] - s.colPtr[v]
		e.order[count[n]] = int32(pos)
		count[n]++
	}
	return e.order
}

// touch records that row r of work may be nonzero.
func (e *etaFactor) touch(r int32) {
	if !e.in[r] {
		e.in[r] = true
		e.touched = append(e.touched, r)
	}
}

// applyFile applies the file built so far to work, as apply does, and
// records every row it fills.
func (e *etaFactor) applyFile() {
	for t := range e.etas {
		et := &e.etas[t]
		xp := e.work[et.p]
		if xp == 0 {
			continue
		}
		e.work[et.p] = et.diag * xp
		rows, vals := e.rows[et.start:et.end], e.vals[et.start:et.end]
		for k, r := range rows {
			e.touch(r)
			e.work[r] += vals[k] * xp
		}
	}
}

// clearWork zeroes the touched rows of work and empties the touched list.
func (e *etaFactor) clearWork() {
	for _, r := range e.touched {
		e.work[r] = 0
		e.in[r] = false
	}
	e.touched = e.touched[:0]
}

// appendEntry adds the eliminating entry -a·inv for row r to the arena,
// unless it is zero or below dropTol.
func (e *etaFactor) appendEntry(r int32, a, inv float64) {
	if a == 0 {
		return
	}
	val := -a * inv
	if math.Abs(val) < dropTol {
		return
	}
	e.rows = append(e.rows, r)
	e.vals = append(e.vals, val)
}

// push appends the eta eliminating the dense column direction work with
// pivot row p.
func (e *etaFactor) push(p int, work []float64) {
	inv := 1 / work[p]
	start := int32(len(e.rows))
	for r, a := range work {
		if r != p {
			e.appendEntry(int32(r), a, inv)
		}
	}
	e.etas = append(e.etas, eta{p: int32(p), diag: inv, start: start, end: int32(len(e.rows))})
}

// apply multiplies x by the eta product in order: x ← E_k ··· E_1 x.
func (e *etaFactor) apply(x []float64) {
	arenaRows, arenaVals := e.rows, e.vals
	for idx := range e.etas {
		et := &e.etas[idx]
		xp := x[et.p]
		if xp == 0 {
			continue
		}
		x[et.p] = et.diag * xp
		vals := arenaVals[et.start:et.end]
		for k, r := range arenaRows[et.start:et.end] {
			x[r] += vals[k] * xp
		}
	}
}

// applyT multiplies a row vector by the product from the right:
// y ← y E_k ··· E_1, processing etas last-to-first. Only component p of y
// changes per eta.
func (e *etaFactor) applyT(y []float64) {
	arenaRows, arenaVals := e.rows, e.vals
	for idx := len(e.etas) - 1; idx >= 0; idx-- {
		et := &e.etas[idx]
		acc := et.diag * y[et.p]
		vals := arenaVals[et.start:et.end]
		for k, r := range arenaRows[et.start:et.end] {
			acc += vals[k] * y[r]
		}
		y[et.p] = acc
	}
}

func (e *etaFactor) ftran(s *simplex, v int, alpha []float64) {
	for i := range alpha {
		alpha[i] = 0
	}
	rows, vals := s.col(v)
	for k, r := range rows {
		alpha[r] = vals[k]
	}
	e.apply(alpha)
}

func (e *etaFactor) btran(s *simplex, cb, y []float64) {
	copy(y, cb)
	e.applyT(y)
}

func (e *etaFactor) applyInv(s *simplex, x []float64) {
	e.apply(x)
}

func (e *etaFactor) update(s *simplex, p int, alpha []float64) error {
	if math.Abs(alpha[p]) < 1e-11 {
		return fmt.Errorf("%w: pivot %g at position %d", errNumerical, alpha[p], p)
	}
	e.push(p, alpha)
	return nil
}
