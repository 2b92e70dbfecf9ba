// Package eval is the experiment harness: it runs recovery algorithms over
// failure cases, aggregates the paper's metrics (programmability box
// statistics, totals normalized to RetroFlow, recovery percentages,
// controller loads, per-flow communication overhead, computation time), and
// renders them as the rows/series of the paper's figures.
package eval

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// Algorithm is a named recovery algorithm. Run may return ErrNoResult to
// indicate that no solution was found within its constraints/budget (the
// paper's "Optimal cannot always have results" cases).
type Algorithm struct {
	Name string
	Run  func(inst *scenario.Instance) (*core.Solution, error)
	// RunSeeded, when non-nil, replaces Run for cases evaluated by the
	// harness: it additionally receives the solutions of the algorithms that
	// ran earlier in the same case, keyed by name (absent when they reported
	// ErrNoResult). The Optimal comparator uses it to warm-start branch &
	// bound from the PM solution already computed for the case.
	RunSeeded func(inst *scenario.Instance, prior map[string]*core.Solution) (*core.Solution, error)
}

// run dispatches to RunSeeded when available, else Run.
func (a Algorithm) run(inst *scenario.Instance, prior map[string]*core.Solution) (*core.Solution, error) {
	if a.RunSeeded != nil {
		return a.RunSeeded(inst, prior)
	}
	return a.Run(inst)
}

// ErrNoResult marks an algorithm that produced no solution for a case;
// the harness records the absence instead of failing the whole sweep.
var ErrNoResult = errors.New("eval: no result")

// CaseResult holds every algorithm's report for one failure case.
type CaseResult struct {
	Label    string
	Failed   []int
	Instance *scenario.Instance
	// Reports maps algorithm name to its report; algorithms that returned
	// ErrNoResult are absent.
	Reports map[string]*core.Report
	// progBox caches per-algorithm box statistics, computed once when the
	// case is evaluated so the figure-rendering metric calls never re-sort
	// the per-flow programmability vector.
	progBox map[string]BoxStat
}

// Report returns the named algorithm's report, or nil when it has none.
func (c *CaseResult) Report(name string) *core.Report {
	return c.Reports[name]
}

// Options tunes Sweep's evaluation engine. The zero value selects the
// defaults: one worker per available CPU and a fresh scenario context.
type Options struct {
	// Workers bounds the number of failure cases evaluated concurrently.
	// 0 selects runtime.GOMAXPROCS(0); 1 forces a single chain, on which
	// cases solve strictly in compile order (the next case's compilation
	// still overlaps the current solve). Whatever the worker count, the
	// returned slice is in exact lexicographic case order and its contents
	// are identical (up to wall-clock Runtime fields) to a sequential run.
	Workers int
	// Context, when non-nil, supplies the precomputed failure-independent
	// scenario state; nil builds one for the sweep. Share one Context across
	// repeated sweeps over the same deployment and workload.
	Context *scenario.Context
}

// Sweep runs every algorithm over every failure combination of size k and
// returns one CaseResult per case, in lexicographic case order, with the
// default Options.
func Sweep(dep *topo.Deployment, flows *flow.Set, k int, algs []Algorithm) ([]*CaseResult, error) {
	return SweepOpts(dep, flows, k, algs, Options{})
}

// SweepOpts is Sweep with explicit engine options: the cases fan out over a
// bounded worker pool sharing one immutable scenario.Context, and the results
// land in lexicographic case order regardless of completion order.
func SweepOpts(dep *topo.Deployment, flows *flow.Set, k int, algs []Algorithm, opts Options) ([]*CaseResult, error) {
	ctx := opts.Context
	if ctx == nil {
		var err error
		ctx, err = scenario.NewContext(dep, flows)
		if err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
	}
	combos := scenario.Combinations(len(dep.Controllers), k)
	results := make([]*CaseResult, len(combos))
	err := ForEachCase(ctx, combos, opts.Workers, func(idx int, inst *scenario.Instance) error {
		cr, err := evalCase(inst, combos[idx], algs)
		if err != nil {
			return err
		}
		results[idx] = cr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// caseErrTracker implements the engine's deterministic error contract: among
// every case that errored, the lowest original index wins, regardless of
// scheduling; once any error lands, the remaining queue drains without work.
type caseErrTracker struct {
	mu       sync.Mutex
	firstErr error
	errIdx   int
	failed   atomic.Bool
}

func (tr *caseErrTracker) record(idx int, err error) {
	tr.mu.Lock()
	if tr.firstErr == nil || idx < tr.errIdx {
		tr.firstErr, tr.errIdx = err, idx
	}
	tr.mu.Unlock()
	tr.failed.Store(true)
}

// deltaStatePool recycles chain compilation state across sweeps; repeated
// sweeps over the same context reuse the arenas (and even warm-start their
// first diff from wherever the previous chain left off).
var deltaStatePool = sync.Pool{New: func() any { return new(scenario.DeltaState) }}

// compiledCase is one unit flowing through a chain's compile→solve pipe.
type compiledCase struct {
	idx  int
	inst *scenario.Instance
}

// ForEachCase compiles every failure combination off the shared context and
// calls fn with the compiled instance. fn runs concurrently for distinct
// indices and must only touch state it owns (writing to its own slot of a
// results slice is the intended pattern). Errors are deterministic
// regardless of scheduling: the failing case with the lowest index wins.
// workers <= 0 selects one worker per available CPU. The plan-store
// compiler and the sweep harness share this engine.
//
// The engine is a pipelined two-stage delta sweep. The case list is
// re-sequenced into revolving-door compile order (compileOrder), statically
// partitioned into `workers` contiguous chains — a deterministic split, so
// which cases share a delta chain never depends on scheduling — and each
// chain runs two goroutines: a compiler that patches case i+1 out of case i
// via scenario.Context.BuildDeltaCase, and a solver draining a buffered
// channel, so compilation of the next case overlaps the solve of the
// current one. fn still receives each case's original index and an
// instance byte-identical to scenario.Context.Build's; neither the Gray
// ordering nor the worker count is visible in the results.
func ForEachCase(ctx *scenario.Context, combos [][]int, workers int, fn func(idx int, inst *scenario.Instance) error) error {
	if len(combos) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(combos) {
		workers = len(combos)
	}
	order := compileOrder(len(ctx.Dep.Controllers), combos)

	var (
		wg sync.WaitGroup
		tr caseErrTracker
	)
	n := len(order)
	for c := 0; c < workers; c++ {
		lo, hi := c*n/workers, (c+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(chain []int) {
			defer wg.Done()
			pipe := make(chan compiledCase, 1)
			var compiler sync.WaitGroup
			compiler.Add(1)
			go func() {
				defer compiler.Done()
				defer close(pipe)
				st := deltaStatePool.Get().(*scenario.DeltaState)
				defer deltaStatePool.Put(st)
				for _, idx := range chain {
					if tr.failed.Load() {
						return
					}
					inst, err := ctx.BuildDeltaCase(combos[idx], st)
					if err != nil {
						tr.record(idx, fmt.Errorf("eval: case %v: %w", combos[idx], err))
						return
					}
					pipe <- compiledCase{idx, inst}
				}
			}()
			for cc := range pipe {
				if tr.failed.Load() {
					continue
				}
				if err := fn(cc.idx, cc.inst); err != nil {
					tr.record(cc.idx, err)
				}
			}
			compiler.Wait()
		}(order[lo:hi])
	}
	wg.Wait()
	return tr.firstErr
}

// RunCase builds the instance for one failure combination and runs every
// algorithm on it.
func RunCase(dep *topo.Deployment, flows *flow.Set, failed []int, algs []Algorithm) (*CaseResult, error) {
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		return nil, fmt.Errorf("eval: case %v: %w", failed, err)
	}
	return runCase(ctx, failed, algs)
}

// runCase compiles one failure case off the shared context and evaluates
// every algorithm on it. It touches only the immutable context plus state it
// allocates itself, so any number of runCase calls may run concurrently.
func runCase(ctx *scenario.Context, failed []int, algs []Algorithm) (*CaseResult, error) {
	inst, err := ctx.Build(failed)
	if err != nil {
		return nil, fmt.Errorf("eval: case %v: %w", failed, err)
	}
	return evalCase(inst, failed, algs)
}

// evalCase evaluates every algorithm on one compiled instance.
func evalCase(inst *scenario.Instance, failed []int, algs []Algorithm) (*CaseResult, error) {
	cr := &CaseResult{
		Label:    inst.Label(),
		Failed:   append([]int(nil), failed...),
		Instance: inst,
		Reports:  make(map[string]*core.Report, len(algs)),
		progBox:  make(map[string]BoxStat, len(algs)),
	}
	prior := make(map[string]*core.Solution, len(algs))
	for _, alg := range algs {
		sol, err := alg.run(inst, prior)
		if errors.Is(err, ErrNoResult) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("eval: case %v: %s: %w", failed, alg.Name, err)
		}
		prior[alg.Name] = sol
		rep, err := inst.Evaluate(sol)
		if err != nil {
			return nil, fmt.Errorf("eval: case %v: %s: %w", failed, alg.Name, err)
		}
		cr.Reports[alg.Name] = rep
		cr.progBox[alg.Name] = Quartiles(rep.FlowProg)
	}
	return cr, nil
}

// BoxStat summarizes a distribution the way the paper's box plots do.
type BoxStat struct {
	Min, Q1, Median, Q3, Max float64
	N                        int
}

// Quartiles computes box statistics with linear interpolation between order
// statistics (the convention of matplotlib's boxplot, which the paper uses).
func Quartiles(values []int) BoxStat {
	if len(values) == 0 {
		return BoxStat{}
	}
	xs := make([]float64, len(values))
	for i, v := range values {
		xs[i] = float64(v)
	}
	sort.Float64s(xs)
	quantile := func(q float64) float64 {
		pos := q * float64(len(xs)-1)
		lo := int(pos)
		if lo >= len(xs)-1 {
			return xs[len(xs)-1]
		}
		frac := pos - float64(lo)
		return xs[lo]*(1-frac) + xs[lo+1]*frac
	}
	return BoxStat{
		Min:    xs[0],
		Q1:     quantile(0.25),
		Median: quantile(0.5),
		Q3:     quantile(0.75),
		Max:    xs[len(xs)-1],
		N:      len(xs),
	}
}

// ProgBox returns the box statistics of per-flow programmability for one
// algorithm in one case (Figs. 4(a), 5(a), 6(a)). Unrecovered flows
// contribute zeros, as in the paper's RetroFlow whiskers. Cases produced by
// Sweep serve the precomputed statistics; hand-built CaseResults fall back
// to computing them on the spot.
func (c *CaseResult) ProgBox(name string) (BoxStat, bool) {
	if box, ok := c.progBox[name]; ok {
		return box, true
	}
	rep := c.Reports[name]
	if rep == nil {
		return BoxStat{}, false
	}
	return Quartiles(rep.FlowProg), true
}

// TotalProgPctOf returns an algorithm's total programmability normalized to
// a baseline algorithm's, in percent (Figs. 4(b), 5(b), 6(b)). ok is false
// when either report is missing or the baseline total is zero.
func (c *CaseResult) TotalProgPctOf(name, baseline string) (float64, bool) {
	a, b := c.Reports[name], c.Reports[baseline]
	if a == nil || b == nil || b.TotalProg == 0 {
		return 0, false
	}
	return 100 * float64(a.TotalProg) / float64(b.TotalProg), true
}

// RecoveredFlowPct returns the percentage of offline flows an algorithm
// recovered (Figs. 4(c), 5(c), 6(c)). The denominator is the recoverable
// offline flow count of the instance.
func (c *CaseResult) RecoveredFlowPct(name string) (float64, bool) {
	rep := c.Reports[name]
	if rep == nil {
		return 0, false
	}
	total := c.Instance.Problem.NumFlows
	if total == 0 {
		return 0, false
	}
	return 100 * float64(rep.RecoveredFlows) / float64(total), true
}

// RecoveredSwitchPct returns the percentage of offline switches recovered
// (Figs. 5(d), 6(d)).
func (c *CaseResult) RecoveredSwitchPct(name string) (float64, bool) {
	rep := c.Reports[name]
	if rep == nil {
		return 0, false
	}
	total := len(c.Instance.Switches)
	if total == 0 {
		return 0, false
	}
	return 100 * float64(rep.RecoveredSwitches) / float64(total), true
}

// ControllerLoadPct returns per-active-controller capacity utilization in
// percent of the residual capacity (Figs. 5(e), 6(e)), ordered like
// Instance.Active.
func (c *CaseResult) ControllerLoadPct(name string) ([]float64, bool) {
	rep := c.Reports[name]
	if rep == nil {
		return nil, false
	}
	p := c.Instance.Problem
	out := make([]float64, len(rep.ControllerLoad))
	for j, load := range rep.ControllerLoad {
		if p.Rest[j] > 0 {
			out[j] = 100 * float64(load) / float64(p.Rest[j])
		}
	}
	return out, true
}

// PerFlowOverheadMs returns the per-flow communication overhead metric
// (Figs. 4(d), 5(f), 6(f)).
func (c *CaseResult) PerFlowOverheadMs(name string) (float64, bool) {
	rep := c.Reports[name]
	if rep == nil {
		return 0, false
	}
	return rep.PerFlowOverheadMs, true
}

// RuntimePct returns an algorithm's computation time as a percentage of the
// baseline's (Fig. 7).
func (c *CaseResult) RuntimePct(name, baseline string) (float64, bool) {
	a, b := c.Reports[name], c.Reports[baseline]
	if a == nil || b == nil || b.Runtime <= 0 {
		return 0, false
	}
	return 100 * float64(a.Runtime) / float64(b.Runtime), true
}

// MeanRuntime averages an algorithm's runtime over the cases where it has a
// result.
func MeanRuntime(cases []*CaseResult, name string) (time.Duration, int) {
	var sum time.Duration
	n := 0
	for _, c := range cases {
		if rep := c.Reports[name]; rep != nil {
			sum += rep.Runtime
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / time.Duration(n), n
}
