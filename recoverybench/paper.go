package main

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/eval"
	"pmedic/internal/flow"
	"pmedic/internal/opt"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// paperNodeBudget is Optimal's branch-&-bound node budget per case. A node
// budget keeps the work deterministic; a time limit would measure the limit.
const paperNodeBudget = 16

// paperLayers are the per-layer metrics att-paper reports.
var paperLayers = []metricDef{
	{"core.pm_p50_ms", "ms"},
	{"core.pm_busy_s", "s"},
	{"core.retroflow_busy_s", "s"},
	{"core.pg_busy_s", "s"},
	{"opt.solve_p50_ms", "ms"},
	{"opt.solve_busy_s", "s"},
	{"opt.incumbent_cases", "count"},
	{"eval.parallelism", "ratio"},
	{"scenario.offline_flows_mean", "count"},
	{"share.opt_of_sweep_pct", "%"},
}

// paperEnv is the paper's evaluation on ATT: every 1-3-controller failure
// case (41) through eval.SweepOpts with PM, RetroFlow, PG and Optimal
// warm-started from PM.
type paperEnv struct {
	dep   *topo.Deployment
	flows *flow.Set
	ctx   *scenario.Context
	// depths is the seed-permuted order of the three sweeps (k = 1, 2, 3);
	// results do not depend on it.
	depths []int
	// first holds the deterministic fields of every case's reports from the
	// first sweep, by label and algorithm; later sweeps must reproduce them.
	// Only these fields are kept, so the heap measured after a phase holds
	// the program's state and not the gate's.
	first map[string]map[string]reportDigest
}

// reportDigest is the deterministic part of a core.Report.
type reportDigest struct {
	minProg, totalProg, recovered int
	objective                     float64
}

func digestReports(reports map[string]*core.Report) map[string]reportDigest {
	out := make(map[string]reportDigest, len(reports))
	for name, r := range reports {
		out[name] = reportDigest{r.MinProg, r.TotalProg, r.RecoveredFlows, r.Objective}
	}
	return out
}

// paperAlgorithms are the four comparators; tr wraps each call in a span.
func paperAlgorithms(tr *tracer) []eval.Algorithm {
	traced := func(name string, f func() (*core.Solution, error)) (*core.Solution, error) {
		id := tr.begin(name)
		defer tr.end(id)
		return f()
	}
	heuristic := func(name, span string, solve func(*core.Problem) (*core.Solution, error)) eval.Algorithm {
		if tr == nil {
			return eval.Algorithm{Name: name, Run: func(inst *scenario.Instance) (*core.Solution, error) {
				return solve(inst.Problem)
			}}
		}
		return eval.Algorithm{Name: name, Run: func(inst *scenario.Instance) (*core.Solution, error) {
			return traced(span, func() (*core.Solution, error) { return solve(inst.Problem) })
		}}
	}
	optimal := func(inst *scenario.Instance, prior map[string]*core.Solution) (*core.Solution, error) {
		sol, err := opt.Solve(inst.Problem, opt.Options{
			TimeLimit: time.Hour, // the node budget is the binding limit
			MaxNodes:  paperNodeBudget,
			Warm:      prior["PM"],
		})
		if errors.Is(err, opt.ErrNoSolution) {
			return nil, fmt.Errorf("%w: %v", eval.ErrNoResult, err)
		}
		return sol, err
	}
	opti := eval.Algorithm{Name: "Optimal", RunSeeded: optimal}
	if tr != nil {
		opti.RunSeeded = func(inst *scenario.Instance, prior map[string]*core.Solution) (*core.Solution, error) {
			return traced("opt.solve", func() (*core.Solution, error) { return optimal(inst, prior) })
		}
	}
	return []eval.Algorithm{
		heuristic("PM", "core.pm", core.PM),
		heuristic("RetroFlow", "core.retroflow", core.RetroFlow),
		heuristic("PG", "core.pg", core.PG),
		opti,
	}
}

func setupPaper(cfg *runConfig, _ *tracer) (env, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	dep, flows, ctx, err := buildATT(&st)
	if err != nil {
		return nil, st, err
	}
	st.total = time.Since(t0)
	depths := []int{1, 2, 3}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(depths), func(a, b int) {
		depths[a], depths[b] = depths[b], depths[a]
	})
	return &paperEnv{dep: dep, flows: flows, ctx: ctx, depths: depths}, st, nil
}

func (e *paperEnv) close() error { return nil }

// buildATT builds the ATT deployment, its all-pairs flows and a scenario
// context, timing the flow generation and the context into st.
func buildATT(st *setupTimes) (*topo.Deployment, *flow.Set, *scenario.Context, error) {
	dep, err := topo.ATT()
	if err != nil {
		return nil, nil, nil, err
	}
	tf := time.Now()
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	st.flowGen = time.Since(tf)
	tc := time.Now()
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		return nil, nil, nil, err
	}
	st.context = time.Since(tc)
	return dep, flows, ctx, nil
}

func (e *paperEnv) run(tr *tracer, p *phase) {
	algs := paperAlgorithms(tr)
	var (
		sweepRoots []int
		incumbents []float64
		quality    quality
	)
	for sweep := 0; !p.enough(); sweep++ {
		root := tr.beginOp("op.sweep")
		t := time.Now()
		var cases []*eval.CaseResult
		var err error
		for _, k := range e.depths {
			var part []*eval.CaseResult
			if part, err = eval.SweepOpts(e.dep, e.flows, k, algs, eval.Options{Context: e.ctx}); err != nil {
				break
			}
			cases = append(cases, part...)
		}
		d := time.Since(t)
		tr.endOp(root)
		p.attempted++
		if err != nil {
			p.fail("sweep: %v", err)
			return
		}
		p.addBatch(d)
		sweepRoots = append(sweepRoots, root)
		n := 0
		for _, c := range cases {
			if r := c.Report("Optimal"); r != nil {
				p.addMain(r.Runtime)
				n++
			}
			if r := c.Report("PM"); r != nil {
				p.addAlt(r.Runtime)
			}
		}
		p.endPass()
		incumbents = append(incumbents, float64(n))
		if q, ok := e.check(p, cases); ok && sweep == 0 {
			quality = q
		}
	}
	p.q = quality
	p.table = append(p.table,
		fmt.Sprintf("att-paper: %d sweeps of %d cases x 4 algorithms, depth order %v, Optimal budget %d nodes",
			len(p.batch), len(scenario.CombinationsUpTo(len(e.dep.Controllers), 3)), e.depths, paperNodeBudget),
		fmt.Sprintf("sweep_s %.4f s (median of %d sweeps)", p.batchS(), len(p.batch)),
		fmt.Sprintf("Optimal per-case computation p50 %.4f ms, p90 %.4f ms (n=%d, %.0f cases with an incumbent per sweep)",
			p.mainP50(), p.mainP90(), len(p.main), median(incumbents)),
		fmt.Sprintf("PM per-case computation p50 %.4f ms (n=%d)", p.altP50(), len(p.alt)),
		fmt.Sprintf("PM: recovered_flow_pct %.4f, min_prog_mean %.4f, total_prog_mean %.4f; optimal_total_prog_mean %.4f",
			p.q.recoveredPct, p.q.minProgMean, p.q.totalProgMean, p.q.refTotalProgMean))
	if tr == nil {
		return
	}

	spans := tr.snapshot()
	byID := spanIndex(spans)
	names := byName(spans)
	var wall, childSum time.Duration
	busy := childBusy(spans, "")
	for _, id := range sweepRoots {
		wall += byID[id].dur()
		childSum += busy[id]
	}
	var offline []float64
	for _, set := range scenario.CombinationsUpTo(len(e.dep.Controllers), 3) {
		if inst, err := e.ctx.Build(set); err == nil {
			offline = append(offline, float64(inst.OfflineFlowCount()))
		}
	}
	p.layers = map[string]float64{
		"opt.incumbent_cases":         median(incumbents),
		"scenario.offline_flows_mean": mean(offline),
	}
	if wall > 0 {
		p.layers["eval.parallelism"] = float64(childSum) / float64(wall)
	}
	addLayer(p.layers, names, "core.pm", "core.pm_p50_ms", "core.pm_busy_s")
	addLayer(p.layers, names, "opt.solve", "opt.solve_p50_ms", "opt.solve_busy_s")
	if ls := names["core.retroflow"]; ls != nil {
		p.layers["core.retroflow_busy_s"] = ls.busy.Seconds()
	}
	if ls := names["core.pg"]; ls != nil {
		p.layers["core.pg_busy_s"] = ls.busy.Seconds()
	}
	if childSum > 0 {
		p.layers["share.opt_of_sweep_pct"] = 100 * p.layers["opt.solve_busy_s"] / childSum.Seconds()
	}
	p.table = append(p.table, fmt.Sprintf("claim: Optimal is %.2f%% of the sweep's solver time (opt busy %.4f s, heuristics %.4f s): %s",
		p.layers["share.opt_of_sweep_pct"], p.layers["opt.solve_busy_s"],
		p.layers["core.pm_busy_s"]+p.layers["core.retroflow_busy_s"]+p.layers["core.pg_busy_s"],
		holds(p.layers["share.opt_of_sweep_pct"] > 50)))
}

// check is the gate after a sweep: 41 cases, every heuristic reported (the
// harness evaluates, and so verifies, every solution), and every report
// identical to the first sweep's. It returns the sweep's quality guards.
// Optimal finding no incumbent within its budget is a counted outcome, not
// a failure.
func (e *paperEnv) check(p *phase, cases []*eval.CaseResult) (quality, bool) {
	var q quality
	want := len(scenario.CombinationsUpTo(len(e.dep.Controllers), 3))
	if len(cases) != want {
		p.fail("sweep returned %d cases, want %d", len(cases), want)
		return q, false
	}
	firstSweep := e.first == nil
	if firstSweep {
		e.first = map[string]map[string]reportDigest{}
	}
	var rec, minP, tot, optTot []float64
	for _, c := range cases {
		for _, name := range []string{"PM", "RetroFlow", "PG"} {
			if c.Report(name) == nil {
				p.fail("case %s: no %s report", c.Label, name)
				return q, false
			}
		}
		if firstSweep {
			e.first[c.Label] = digestReports(c.Reports)
		} else if !maps.Equal(e.first[c.Label], digestReports(c.Reports)) {
			p.fail("case %s: reports differ from the first sweep's", c.Label)
			return q, false
		}
		pm := c.Report("PM")
		rec = append(rec, 100*float64(pm.RecoveredFlows)/float64(c.Instance.OfflineFlowCount()))
		minP = append(minP, float64(pm.MinProg))
		tot = append(tot, float64(pm.TotalProg))
		if o := c.Report("Optimal"); o != nil {
			optTot = append(optTot, float64(o.TotalProg))
		}
	}
	return quality{mean(rec), mean(minP), mean(tot), mean(optTot)}, true
}
