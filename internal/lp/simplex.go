package lp

import (
	"errors"
	"math"
)

// varState tracks where a variable currently sits.
type varState int8

const (
	atLower varState = iota
	atUpper
	inBasis
)

// simplex is a bounded-variable revised primal simplex over the expanded
// (structural + slack + artificial) variable space. The constraint matrix is
// stored in compressed-sparse-column (CSC) form; the basis inverse lives
// behind the factorizer interface (dense explicit inverse for tiny models,
// product-form eta file with sparse refactorization otherwise). A Model
// keeps one simplex and reuses its buffers from solve to solve.
type simplex struct {
	opts Options

	m int // rows
	n int // structural variables

	// CSC storage for all columns, structural then slack then artificial.
	// Column v occupies rowIdx/colVal[colPtr[v]:colPtr[v+1]]. The structural
	// and slack part is the model's shared compiled form, capacity-clipped
	// so that appending artificials copies it instead of writing into it.
	colPtr []int32
	rowIdx []int32
	colVal []float64

	lower  []float64 // bounds per expanded variable
	upper  []float64
	costP2 []float64 // phase-2 (true, minimization) costs
	costP1 []float64 // phase-1 costs (1 on artificials)
	b      []float64 // right-hand sides

	slackVar []int32 // per row: slack variable index, or -1 (EQ rows)

	nArt     int
	artStart int // first artificial variable index

	basis []int // variable in each basis position (position == constraint row)
	state []varState
	xB    []float64 // values of basic variables by basis position

	fact         factorizer
	eta          etaFactor
	refreshEvery int

	maximize  bool
	iters     int
	refactors int

	// Per-solve scratch vectors, each m long.
	cb, y, alpha, rho, unit, rhs, resid []float64
	seen                                []bool
}

func (s *simplex) numCols() int { return len(s.colPtr) - 1 }

// col returns column v's sparse entries.
func (s *simplex) col(v int) ([]int32, []float64) {
	a, b := s.colPtr[v], s.colPtr[v+1]
	return s.rowIdx[a:b], s.colVal[a:b]
}

// compiled is a model's computational form: structural then slack columns
// in CSC, their phase-2 costs, the right-hand sides and each row's slack.
// It depends only on the model's variables and rows, never on bounds, so
// it is built once and shared read-only by the model's clones.
type compiled struct {
	colPtr   []int32
	rowIdx   []int32
	colVal   []float64
	costP2   []float64
	b        []float64
	slackVar []int32
}

// compile expands the model into computational form.
func compile(m *Model) *compiled {
	n, nRows := len(m.obj), len(m.rows)
	c := &compiled{}
	// Structural columns in CSC form: count, prefix-sum, fill, then merge
	// duplicate variable mentions within a row (AddRow permits them).
	c.colPtr = make([]int32, n+1, n+nRows+1)
	for _, r := range m.rows {
		for _, t := range r.terms {
			c.colPtr[t.Var+1]++
		}
	}
	for v := 0; v < n; v++ {
		c.colPtr[v+1] += c.colPtr[v]
	}
	nnz := c.colPtr[n]
	c.rowIdx = make([]int32, nnz, int(nnz)+nRows)
	c.colVal = make([]float64, nnz, int(nnz)+nRows)
	next := make([]int32, n)
	copy(next, c.colPtr[:n])
	for i, r := range m.rows {
		for _, t := range r.terms {
			k := next[t.Var]
			c.rowIdx[k] = int32(i)
			c.colVal[k] = t.Coeff
			next[t.Var]++
		}
	}
	c.mergeDuplicates(n)

	c.costP2 = make([]float64, n, n+nRows)
	for v, cost := range m.obj {
		if m.sense == Maximize {
			c.costP2[v] = -cost
		} else {
			c.costP2[v] = cost
		}
	}
	c.b = make([]float64, nRows)
	for i, r := range m.rows {
		c.b[i] = r.rhs
	}
	// Slack columns: LE -> +slack in [0, inf); GE -> -slack in [0, inf);
	// EQ -> none.
	c.slackVar = make([]int32, nRows)
	for i, r := range m.rows {
		coeff := 1.0
		switch r.op {
		case EQ:
			c.slackVar[i] = -1
			continue
		case GE:
			coeff = -1
		}
		c.slackVar[i] = int32(len(c.colPtr) - 1)
		c.rowIdx = append(c.rowIdx, int32(i))
		c.colVal = append(c.colVal, coeff)
		c.colPtr = append(c.colPtr, int32(len(c.rowIdx)))
		c.costP2 = append(c.costP2, 0)
	}
	return c
}

// mergeDuplicates sums repeated row entries inside each of the first n CSC
// columns. The fill visits rows in ascending order, so every column is
// already sorted by row and a variable's repeats within one row are
// adjacent, summed in term order.
func (c *compiled) mergeDuplicates(n int) {
	write := int32(0)
	start := int32(0)
	for v := 0; v < n; v++ {
		a, b := start, c.colPtr[v+1]
		start = b
		c.colPtr[v] = write
		for k := a; k < b; k++ {
			if write > c.colPtr[v] && c.rowIdx[write-1] == c.rowIdx[k] {
				c.colVal[write-1] += c.colVal[k]
				continue
			}
			c.rowIdx[write] = c.rowIdx[k]
			c.colVal[write] = c.colVal[k]
			write++
		}
	}
	c.colPtr[n] = write
	c.rowIdx = c.rowIdx[:write]
	c.colVal = c.colVal[:write]
}

// reset prepares s to solve m (whose compiled form is c) from scratch,
// keeping every buffer from the previous solve.
func (s *simplex) reset(m *Model, c *compiled, opts Options) {
	s.opts = opts
	s.m = len(m.rows)
	s.n = len(m.obj)
	s.maximize = m.sense == Maximize
	s.colPtr = c.colPtr[:len(c.colPtr):len(c.colPtr)]
	s.rowIdx = c.rowIdx[:len(c.rowIdx):len(c.rowIdx)]
	s.colVal = c.colVal[:len(c.colVal):len(c.colVal)]
	s.costP2 = c.costP2[:len(c.costP2):len(c.costP2)]
	s.b = c.b
	s.slackVar = c.slackVar
	nSlack := s.numCols() - s.n
	s.lower = append(s.lower[:0], m.lower...)
	s.upper = append(s.upper[:0], m.upper...)
	for k := 0; k < nSlack; k++ {
		s.lower = append(s.lower, 0)
		s.upper = append(s.upper, math.Inf(1))
	}
	s.nArt = 0
	s.iters = 0
	s.refactors = 0
	for _, buf := range []*[]float64{&s.cb, &s.y, &s.alpha, &s.rho, &s.unit, &s.rhs, &s.resid} {
		*buf = resize(*buf, s.m)
	}

	// Basis-inverse representation: dense explicit inverse for tiny models,
	// product-form eta file with sparse refactorization otherwise.
	useDense := s.m <= denseCutoff
	switch opts.Factorization {
	case FactorDense:
		useDense = true
	case FactorSparse:
		useDense = false
	}
	if useDense {
		s.fact = &denseFactor{}
		s.refreshEvery = 256
	} else {
		s.fact = &s.eta
		s.refreshEvery = 96
	}
}

// resize returns buf with length n, reallocating only when it is too small.
// The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// denseCutoff is the row count below which the dense explicit inverse wins:
// at this size an O(m^3) refactorization is cheaper than the bookkeeping of
// the eta file.
const denseCutoff = 48

// addCol appends a single-entry column and returns its index.
func (s *simplex) addCol(row int, coeff, lo, hi, cost float64) int {
	s.rowIdx = append(s.rowIdx, int32(row))
	s.colVal = append(s.colVal, coeff)
	s.colPtr = append(s.colPtr, int32(len(s.rowIdx)))
	s.lower = append(s.lower, lo)
	s.upper = append(s.upper, hi)
	s.costP2 = append(s.costP2, cost)
	return s.numCols() - 1
}

// errNumerical reports unrecoverable numerical trouble.
var errNumerical = errors.New("lp: numerical failure")

func (s *simplex) solve(warm *Basis) (*Solution, error) {
	// Place nonbasic variables at their finite lower bound (validated by
	// SolveWith) and compute each row's residual.
	s.residual(s.rhs)

	warmStarted := warm != nil && s.tryWarm(warm)
	if !warmStarted {
		s.crashBasis(s.rhs)
		if err := s.refactorize(); err != nil {
			return nil, err
		}
		if s.nArt > 0 {
			// Phase 1.
			s.costP1 = resize(s.costP1, s.numCols())
			for v := range s.costP1 {
				s.costP1[v] = 0
				if v >= s.artStart {
					s.costP1[v] = 1
				}
			}
			status, err := s.iterate(s.costP1)
			if err != nil {
				return nil, err
			}
			if status == StatusIterLimit {
				return s.solution(StatusIterLimit), nil
			}
			if s.phase1Objective() > s.opts.Tol*float64(1+s.m) {
				return s.solution(StatusInfeasible), nil
			}
			s.lockArtificials()
		}
	}

	// Phase 2.
	status, err := s.iterate(s.costP2)
	if err != nil {
		return nil, err
	}
	sol := s.solution(status)
	if status == StatusOptimal || status == StatusIterLimit {
		sol.X = s.extractX()
		var obj float64
		for v := 0; v < s.n; v++ {
			obj += s.costP2[v] * sol.X[v]
		}
		if s.maximize {
			obj = -obj
		}
		sol.Objective = obj
	}
	if status == StatusOptimal {
		sol.Duals = s.duals()
		sol.Basis = s.exportBasis()
	}
	return sol, nil
}

// solution starts the result of a solve that ended with status, carrying
// its work counters.
func (s *simplex) solution(status Status) *Solution {
	return &Solution{Status: status, Iters: s.iters, Refactors: s.refactors}
}

// residual fills resid with b - N x_N for all nonbasic variables at their
// lower bound (the pre-crash state).
func (s *simplex) residual(resid []float64) {
	copy(resid, s.b)
	for v := 0; v < s.numCols(); v++ {
		x := s.lower[v]
		if x == 0 {
			continue
		}
		rows, vals := s.col(v)
		for k, r := range rows {
			resid[r] -= vals[k] * x
		}
	}
}

// crashBasis builds the initial basis: each row's slack when the residual
// sign allows it to sit feasibly in the basis, an artificial otherwise. EQ
// rows (no slack) always get an artificial. Fewer artificials mean phase 1
// starts closer to feasibility — for all-LE models with nonnegative
// residuals it is skipped entirely.
func (s *simplex) crashBasis(resid []float64) {
	s.artStart = s.numCols()
	s.basis = resize(s.basis, s.m)
	s.xB = resize(s.xB, s.m)
	s.state = resize(s.state, s.artStart+s.m)[:s.artStart]
	clear(s.state)
	s.nArt = 0
	for i := 0; i < s.m; i++ {
		if sv := s.slackVar[i]; sv >= 0 {
			// Slack value at this basis: +resid (LE) or -resid (GE); its
			// coefficient is ±1, so value = resid / coeff.
			_, vals := s.col(int(sv))
			val := resid[i] / vals[0]
			if val >= 0 {
				s.basis[i] = int(sv)
				s.state[sv] = inBasis
				s.xB[i] = val
				continue
			}
		}
		coeff := 1.0
		if resid[i] < 0 {
			coeff = -1.0
		}
		v := s.addCol(i, coeff, 0, math.Inf(1), 0)
		s.state = append(s.state, inBasis)
		s.basis[i] = v
		s.xB[i] = math.Abs(resid[i])
		s.nArt++
	}
}

// tryWarm attempts to start from a previously exported basis: it must have
// the right size, reference only structural/slack variables, and yield a
// primal-feasible, nonsingular starting point. On any failure the simplex is
// left ready for the cold-start path and false is returned.
func (s *simplex) tryWarm(warm *Basis) bool {
	if len(warm.vars) != s.m {
		return false
	}
	nCols := s.numCols()
	s.artStart = nCols
	s.nArt = 0
	s.state = resize(s.state, nCols)
	clear(s.state)
	s.seen = resize(s.seen, nCols)
	clear(s.seen)
	for _, v := range warm.vars {
		if v < 0 || int(v) >= nCols || s.seen[v] {
			return false
		}
		s.seen[v] = true
		s.state[v] = inBasis
	}
	for _, v := range warm.upper {
		if v < 0 || int(v) >= nCols || s.state[v] == inBasis || math.IsInf(s.upper[v], 1) {
			return false
		}
		s.state[v] = atUpper
	}
	s.basis = resize(s.basis, s.m)
	for i, v := range warm.vars {
		s.basis[i] = int(v)
	}
	s.xB = resize(s.xB, s.m)
	if err := s.refactorize(); err != nil {
		// Singular warm basis: the crash path starts over.
		return false
	}
	tol := s.opts.Tol * 10
	feasible := true
	for i, v := range s.basis {
		if s.xB[i] < s.lower[v]-tol || s.xB[i] > s.upper[v]+tol {
			feasible = false
			break
		}
	}
	if feasible {
		return true
	}
	// Bound changes since the basis was exported (branch & bound tightens
	// one variable per node) leave it dual-feasible but primal-infeasible:
	// exactly the case dual simplex repairs in a handful of pivots.
	return s.dualRepair()
}

// dualRepair restores primal feasibility of a structurally valid warm basis
// by bounded-variable dual simplex: pick the most-violated basic variable,
// drive it to its violated bound, and choose the entering column by the
// dual ratio test so reduced costs keep their signs. Returns false when it
// cannot finish (no entering column — possibly primal-infeasible — or
// numerical trouble); the caller then falls back to the cold start, which
// settles feasibility authoritatively.
func (s *simplex) dualRepair() bool {
	const pivTol = 1e-9
	tol := s.opts.Tol
	cb, y, rho, unit, alpha := s.cb, s.y, s.rho, s.unit, s.alpha
	sinceRefresh := 0
	maxIter := 2*s.m + 100
	for iter := 0; iter < maxIter; iter++ {
		// Leaving row: the most violated basic bound.
		r := -1
		worst := tol * 10
		below := false
		for i, v := range s.basis {
			if d := s.lower[v] - s.xB[i]; d > worst {
				worst, r, below = d, i, true
			}
			if d := s.xB[i] - s.upper[v]; d > worst {
				worst, r, below = d, i, false
			}
		}
		if r < 0 {
			return true
		}
		s.iters++
		// Duals and row r of B⁻¹.
		for i, v := range s.basis {
			cb[i] = s.costP2[v]
		}
		s.fact.btran(s, cb, y)
		for i := range unit {
			unit[i] = 0
		}
		unit[r] = 1
		s.fact.btran(s, unit, rho)
		// Dual ratio test: among nonbasic columns able to move x_B[r] toward
		// its bound, take the one whose reduced cost gives way first.
		entering := -1
		best := math.Inf(1)
		nCols := s.numCols()
		colPtr, rowIdx, colVal := s.colPtr[:nCols+1], s.rowIdx, s.colVal
		state, lower, upper := s.state[:nCols], s.lower[:nCols], s.upper[:nCols]
		for v := 0; v < nCols; v++ {
			if state[v] == inBasis || lower[v] == upper[v] {
				continue
			}
			a, b := colPtr[v], colPtr[v+1]
			rows, vals := rowIdx[a:b], colVal[a:b]
			var w float64
			for k, rr := range rows {
				w += rho[rr] * vals[k]
			}
			var ok bool
			if below { // x_B[r] must increase
				ok = (state[v] == atLower && w < -pivTol) || (state[v] == atUpper && w > pivTol)
			} else { // x_B[r] must decrease
				ok = (state[v] == atLower && w > pivTol) || (state[v] == atUpper && w < -pivTol)
			}
			if !ok {
				continue
			}
			d := s.costP2[v]
			for k, rr := range rows {
				d -= y[rr] * vals[k]
			}
			ratio := math.Abs(d) / math.Abs(w)
			if ratio < best-1e-12 || (ratio < best+1e-12 && (entering < 0 || v < entering)) {
				best, entering = ratio, v
			}
		}
		if entering < 0 {
			return false
		}
		leavingVar := s.basis[r]
		target := s.upper[leavingVar]
		if below {
			target = s.lower[leavingVar]
		}
		delta := s.xB[r] - target
		s.fact.ftran(s, entering, alpha)
		if math.Abs(alpha[r]) < pivTol {
			// rho-based row entry disagreed with the recomputed column:
			// refactorize and retry the iteration.
			if s.refactorize() != nil {
				return false
			}
			continue
		}
		step := delta / alpha[r]
		rest := s.lower[entering]
		if s.state[entering] == atUpper {
			rest = s.upper[entering]
		}
		if err := s.fact.update(s, r, alpha); err != nil {
			if s.refactorize() != nil {
				return false
			}
			continue
		}
		for i := 0; i < s.m; i++ {
			if i != r {
				s.xB[i] -= alpha[i] * step
			}
		}
		s.xB[r] = rest + step
		s.basis[r] = entering
		s.state[entering] = inBasis
		if below {
			s.state[leavingVar] = atLower
		} else {
			s.state[leavingVar] = atUpper
		}
		sinceRefresh++
		if sinceRefresh >= s.refreshEvery {
			if s.refactorize() != nil {
				return false
			}
			sinceRefresh = 0
		}
	}
	return false
}

// exportBasis snapshots the final basis for warm-starting a related solve.
// Bases that still contain artificial variables are not exportable.
func (s *simplex) exportBasis() *Basis {
	bs := &Basis{vars: make([]int32, s.m)}
	for i, v := range s.basis {
		if v >= s.artStart {
			return nil
		}
		bs.vars[i] = int32(v)
	}
	for v := 0; v < s.artStart; v++ {
		if s.state[v] == atUpper {
			bs.upper = append(bs.upper, int32(v))
		}
	}
	return bs
}

// refactorize rebuilds the basis-inverse representation from s.basis and
// recomputes the basic values.
func (s *simplex) refactorize() error {
	s.refactors++
	if err := s.fact.refactorize(s); err != nil {
		return err
	}
	s.recomputeXB()
	return nil
}

// duals computes y = c_B B⁻¹ under the phase-2 costs, converted back to the
// model's sense.
func (s *simplex) duals() []float64 {
	cb := make([]float64, s.m)
	for i, v := range s.basis {
		cb[i] = s.costP2[v]
	}
	y := make([]float64, s.m)
	s.fact.btran(s, cb, y)
	if s.maximize {
		for j := range y {
			y[j] = -y[j]
		}
	}
	return y
}

func (s *simplex) phase1Objective() float64 {
	var sum float64
	for i, v := range s.basis {
		if v >= s.artStart {
			sum += s.xB[i]
		}
	}
	for v := s.artStart; v < s.numCols(); v++ {
		if s.state[v] == atUpper {
			// Artificials have infinite upper bound, so this cannot happen;
			// guarded for safety.
			sum += s.upper[v]
		}
	}
	return sum
}

// lockArtificials pins artificial variables to zero so phase 2 cannot use
// them. Artificials still basic (at value ~0) are pivoted out when possible;
// a row whose artificial cannot leave is linearly dependent and harmless.
func (s *simplex) lockArtificials() {
	for v := s.artStart; v < s.numCols(); v++ {
		s.upper[v] = 0
	}
	alpha, row := s.alpha, s.rho
	pivoted := false
	for i := 0; i < s.m; i++ {
		if s.basis[i] < s.artStart {
			continue
		}
		// Row i of B⁻¹, computed once: candidate directions' i-th entries are
		// then sparse dot products.
		for j := range row {
			row[j] = 0
		}
		row[i] = 1
		s.fact.btran(s, row, alpha)
		copy(row, alpha)
		art := s.basis[i]
		for v := 0; v < s.artStart; v++ {
			if s.state[v] == inBasis {
				continue
			}
			rows, vals := s.col(v)
			var entry float64
			for k, r := range rows {
				entry += row[r] * vals[k]
			}
			if math.Abs(entry) > 1e-7 {
				s.fact.ftran(s, v, alpha)
				if err := s.fact.update(s, i, alpha); err != nil {
					continue
				}
				s.basis[i] = v
				s.state[v] = inBasis
				s.state[art] = atLower
				pivoted = true
				break
			}
		}
	}
	if pivoted {
		s.recomputeXB()
	}
}

// iterate runs primal simplex on the given cost vector until optimal.
func (s *simplex) iterate(cost []float64) (Status, error) {
	cb, y, alpha := s.cb, s.y, s.alpha
	sinceRefresh := 0
	stall := 0
	prevObj := math.Inf(1)
	bland := false

	for iter := 0; iter < s.opts.MaxIters; iter++ {
		s.iters++
		// Duals: y = c_B B⁻¹.
		for i, v := range s.basis {
			cb[i] = cost[v]
		}
		s.fact.btran(s, cb, y)
		// Pricing: reduced costs touch only each column's nonzeros.
		entering := -1
		var bestScore float64
		enterDir := 1.0
		nCols := s.numCols()
		colPtr, rowIdx, colVal := s.colPtr[:nCols+1], s.rowIdx, s.colVal
		state, lower, upper := s.state[:nCols], s.lower[:nCols], s.upper[:nCols]
		tol := s.opts.Tol
		for v := 0; v < nCols; v++ {
			if state[v] == inBasis || lower[v] == upper[v] {
				continue
			}
			d := cost[v]
			a, b := colPtr[v], colPtr[v+1]
			vals := colVal[a:b]
			for k, r := range rowIdx[a:b] {
				d -= y[r] * vals[k]
			}
			var score float64
			var dir float64
			if state[v] == atLower && d < -tol {
				score, dir = -d, 1
			} else if state[v] == atUpper && d > tol {
				score, dir = d, -1
			} else {
				continue
			}
			if bland {
				entering, enterDir = v, dir
				break
			}
			if score > bestScore {
				bestScore, entering, enterDir = score, v, dir
			}
		}
		if entering < 0 {
			return StatusOptimal, nil
		}

		s.fact.ftran(s, entering, alpha)
		// Ratio test: the entering variable moves by enterDir * t, t >= 0;
		// basic variable i moves by -enterDir * alpha[i] * t.
		tMax := s.upper[entering] - s.lower[entering] // bound-flip distance
		leaving := -1
		leavingToUpper := false
		const pivTol = 1e-9
		for i := 0; i < s.m; i++ {
			rate := -enterDir * alpha[i]
			if rate < -pivTol { // basic decreases toward its lower bound
				lb := s.lower[s.basis[i]]
				t := (s.xB[i] - lb) / -rate
				if t < tMax-1e-12 || (leaving >= 0 && bland && t <= tMax+1e-12 && s.basis[i] < s.basis[leaving]) {
					tMax, leaving, leavingToUpper = t, i, false
				}
			} else if rate > pivTol { // basic increases toward its upper bound
				ub := s.upper[s.basis[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				t := (ub - s.xB[i]) / rate
				if t < tMax-1e-12 || (leaving >= 0 && bland && t <= tMax+1e-12 && s.basis[i] < s.basis[leaving]) {
					tMax, leaving, leavingToUpper = t, i, true
				}
			}
		}
		if math.IsInf(tMax, 1) {
			return StatusUnbounded, nil
		}
		if tMax < 0 {
			tMax = 0
		}

		// Apply the step to basic values.
		for i := 0; i < s.m; i++ {
			s.xB[i] -= enterDir * alpha[i] * tMax
		}
		if leaving < 0 {
			// Bound flip: entering jumps to its other bound.
			if s.state[entering] == atLower {
				s.state[entering] = atUpper
			} else {
				s.state[entering] = atLower
			}
		} else {
			if math.Abs(alpha[leaving]) < pivTol {
				if err := s.refactorize(); err != nil {
					return 0, err
				}
				continue
			}
			enterVal := s.lower[entering]
			if s.state[entering] == atUpper {
				enterVal = s.upper[entering]
			}
			enterVal += enterDir * tMax
			leavingVar := s.basis[leaving]
			if err := s.fact.update(s, leaving, alpha); err != nil {
				if err := s.refactorize(); err != nil {
					return 0, err
				}
				continue
			}
			s.basis[leaving] = entering
			s.state[entering] = inBasis
			if leavingToUpper {
				s.state[leavingVar] = atUpper
			} else {
				s.state[leavingVar] = atLower
			}
			s.xB[leaving] = enterVal
			sinceRefresh++
		}

		// Stall detection drives the Bland fallback.
		obj := 0.0
		for i, v := range s.basis {
			obj += cost[v] * s.xB[i]
		}
		if obj < prevObj-1e-10 {
			prevObj = obj
			stall = 0
			bland = false
		} else {
			stall++
			if stall > 2*s.m+50 {
				bland = true
			}
		}

		if sinceRefresh >= s.refreshEvery {
			if err := s.refactorize(); err != nil {
				return 0, err
			}
			sinceRefresh = 0
		}
	}
	return StatusIterLimit, nil
}

// recomputeXB recomputes basic values from nonbasic bounds: x_B = B⁻¹ (b − N x_N).
func (s *simplex) recomputeXB() {
	resid := s.resid
	copy(resid, s.b)
	for v := 0; v < s.numCols(); v++ {
		if s.state[v] == inBasis {
			continue
		}
		x := s.lower[v]
		if s.state[v] == atUpper {
			x = s.upper[v]
		}
		if x == 0 {
			continue
		}
		rows, vals := s.col(v)
		for k, r := range rows {
			resid[r] -= vals[k] * x
		}
	}
	s.fact.applyInv(s, resid)
	copy(s.xB, resid)
}

// extractX returns structural variable values.
func (s *simplex) extractX() []float64 {
	x := make([]float64, s.n)
	for v := 0; v < s.n; v++ {
		switch s.state[v] {
		case atLower:
			x[v] = s.lower[v]
		case atUpper:
			x[v] = s.upper[v]
		}
	}
	for i, v := range s.basis {
		if v < s.n {
			x[v] = s.xB[i]
		}
	}
	return x
}
