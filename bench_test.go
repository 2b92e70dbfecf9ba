package pmedic

// One benchmark per table/figure of the paper's evaluation: each bench
// regenerates the data series behind its figure (workload + sweep + metric
// extraction) once per iteration and sanity-checks the reproduced shape.
// `go test -bench=. -benchmem` therefore doubles as the reproduction run;
// cmd/pmsim pretty-prints the same series.

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/eval"
	"pmedic/internal/flow"
	"pmedic/internal/lp"
	"pmedic/internal/opt"
	"pmedic/internal/planstore"
	"pmedic/internal/region"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// heuristicAlgorithms are the three fast comparators (Optimal has its own
// benches — it is orders of magnitude slower by design).
func heuristicAlgorithms() []eval.Algorithm {
	return []eval.Algorithm{
		{Name: "PM", Run: func(inst *scenario.Instance) (*core.Solution, error) {
			return core.PM(inst.Problem)
		}},
		{Name: "RetroFlow", Run: func(inst *scenario.Instance) (*core.Solution, error) {
			return core.RetroFlow(inst.Problem)
		}},
		{Name: "PG", Run: func(inst *scenario.Instance) (*core.Solution, error) {
			return core.PG(inst.Problem)
		}},
	}
}

// benchFixtures builds the shared inputs of a figure bench: the deployment,
// the workload, and one scenario context reused across every sweep — the
// production configuration (cmd/pmsim shares a context the same way). The
// callers ResetTimer after fixtures, so benches time the sweep engine.
func benchFixtures(b *testing.B) (*topo.Deployment, *flow.Set, *scenario.Context) {
	b.Helper()
	dep, err := topo.ATT()
	if err != nil {
		b.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		b.Fatal(err)
	}
	return dep, flows, ctx
}

func sweep(b *testing.B, dep *topo.Deployment, flows *flow.Set, ctx *scenario.Context, k int) []*eval.CaseResult {
	b.Helper()
	cases, err := eval.SweepOpts(dep, flows, k, heuristicAlgorithms(), eval.Options{Context: ctx})
	if err != nil {
		b.Fatal(err)
	}
	return cases
}

// BenchmarkTableIII regenerates the controller/switch/flow-count table: the
// embedded topology plus the all-pairs shortest-path workload with
// programmability coefficients.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dep, err := topo.ATT()
		if err != nil {
			b.Fatal(err)
		}
		flows, err := flow.Generate(dep.Graph, flow.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if flows.Len() != 600 {
			b.Fatalf("flows = %d", flows.Len())
		}
		for _, c := range dep.Controllers {
			load := 0
			for _, sw := range c.Domain {
				load += flows.SwitchFlowCount(sw)
			}
			if load >= c.Capacity {
				b.Fatalf("controller at %d overloaded pre-failure", c.Site)
			}
		}
	}
}

// --- Fig. 4: one controller failure (6 cases) ---

// BenchmarkFig4Programmability regenerates Fig. 4(a): per-flow
// programmability box statistics. Under one failure every algorithm matches.
func BenchmarkFig4Programmability(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 1) {
			pm, _ := c.ProgBox("PM")
			rf, _ := c.ProgBox("RetroFlow")
			if pm.Median != rf.Median || pm.Min != rf.Min {
				b.Fatalf("case %s: single-failure box stats diverge (PM %+v, RetroFlow %+v)", c.Label, pm, rf)
			}
		}
	}
}

// BenchmarkFig4TotalProgrammability regenerates Fig. 4(b): totals normalized
// to RetroFlow are 100% in every single-failure case.
func BenchmarkFig4TotalProgrammability(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 1) {
			if pct, ok := c.TotalProgPctOf("PM", "RetroFlow"); !ok || pct < 99.99 {
				b.Fatalf("case %s: PM = %.1f%% of RetroFlow, want 100%%", c.Label, pct)
			}
		}
	}
}

// BenchmarkFig4RecoveredFlows regenerates Fig. 4(c): 100% recovery for every
// algorithm under a single failure.
func BenchmarkFig4RecoveredFlows(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 1) {
			for _, name := range []string{"PM", "RetroFlow", "PG"} {
				if pct, ok := c.RecoveredFlowPct(name); !ok || pct < 99.99 {
					b.Fatalf("case %s: %s recovered %.1f%%", c.Label, name, pct)
				}
			}
		}
	}
}

// BenchmarkFig4Overhead regenerates Fig. 4(d): per-flow communication
// overhead; PG (middle layer) must be the worst.
func BenchmarkFig4Overhead(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 1) {
			pm, _ := c.PerFlowOverheadMs("PM")
			pg, _ := c.PerFlowOverheadMs("PG")
			if pg <= pm {
				b.Fatalf("case %s: PG overhead %.2f <= PM %.2f", c.Label, pg, pm)
			}
		}
	}
}

// --- Fig. 5: two controller failures (15 cases) ---

// BenchmarkFig5Programmability regenerates Fig. 5(a): PM keeps a balanced
// floor (min 2) while RetroFlow's min collapses to 0 in every case.
func BenchmarkFig5Programmability(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 2) {
			pm, _ := c.ProgBox("PM")
			rf, _ := c.ProgBox("RetroFlow")
			if pm.Min < 2 {
				b.Fatalf("case %s: PM min %.0f < 2", c.Label, pm.Min)
			}
			if rf.Min != 0 {
				b.Fatalf("case %s: RetroFlow min %.0f != 0", c.Label, rf.Min)
			}
		}
	}
}

// BenchmarkFig5TotalProgrammability regenerates Fig. 5(b): PM strictly
// beats RetroFlow everywhere, and the largest gap occurs in a case where
// the spare-capacity backup controller (site 16) is among the failed — the
// structural analog of the paper's headline case (13, 20).
func BenchmarkFig5TotalProgrammability(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worst := 0.0
		var worstCase *eval.CaseResult
		for _, c := range sweep(b, dep, flows, ctx, 2) {
			pct, ok := c.TotalProgPctOf("PM", "RetroFlow")
			if !ok || pct <= 100 {
				b.Fatalf("case %s: PM = %.1f%% of RetroFlow", c.Label, pct)
			}
			if pct > worst {
				worst, worstCase = pct, c
			}
		}
		if worst < 150 {
			b.Fatalf("largest gap only %.0f%% at %s; the backup-failure spike is missing", worst, worstCase.Label)
		}
		if !failsSite(dep, worstCase, 16) {
			b.Fatalf("largest gap at %s (%.0f%%), want a case that kills the backup controller (site 16)",
				worstCase.Label, worst)
		}
	}
}

// failsSite reports whether the case's failed set includes the controller
// hosted at the given site, by inspecting the failed controller indices
// rather than scanning the display label for a digit substring (which would
// also match e.g. site 6 next to a 1, or a site "160").
func failsSite(dep *topo.Deployment, c *eval.CaseResult, site topo.NodeID) bool {
	for _, j := range c.Failed {
		if j >= 0 && j < len(dep.Controllers) && dep.Controllers[j].Site == site {
			return true
		}
	}
	return false
}

// BenchmarkFig5RecoveredFlows regenerates Fig. 5(c): PM and PG recover 100%,
// RetroFlow a strict subset.
func BenchmarkFig5RecoveredFlows(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 2) {
			pm, _ := c.RecoveredFlowPct("PM")
			rf, _ := c.RecoveredFlowPct("RetroFlow")
			if pm < 99.99 || rf >= pm {
				b.Fatalf("case %s: PM %.0f%%, RetroFlow %.0f%%", c.Label, pm, rf)
			}
		}
	}
}

// BenchmarkFig5RecoveredSwitches regenerates Fig. 5(d): recovered offline
// switches per algorithm.
func BenchmarkFig5RecoveredSwitches(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 2) {
			pm, _ := c.RecoveredSwitchPct("PM")
			rf, _ := c.RecoveredSwitchPct("RetroFlow")
			if pm < rf {
				b.Fatalf("case %s: PM switches %.0f%% < RetroFlow %.0f%%", c.Label, pm, rf)
			}
		}
	}
}

// BenchmarkFig5ControllerLoad regenerates Fig. 5(e): control resource used
// per active controller.
func BenchmarkFig5ControllerLoad(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 2) {
			loads, ok := c.ControllerLoadPct("PM")
			if !ok {
				b.Fatalf("case %s: no PM loads", c.Label)
			}
			for jj, pct := range loads {
				if pct > 100.0001 {
					b.Fatalf("case %s: controller %d at %.1f%%", c.Label, jj, pct)
				}
			}
		}
	}
}

// BenchmarkFig5Overhead regenerates Fig. 5(f): per-flow communication
// overhead ordering PM < RetroFlow-or-PG, PG worst.
func BenchmarkFig5Overhead(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 2) {
			pm, _ := c.PerFlowOverheadMs("PM")
			pg, _ := c.PerFlowOverheadMs("PG")
			if pg <= pm {
				b.Fatalf("case %s: PG %.2f <= PM %.2f", c.Label, pg, pm)
			}
		}
	}
}

// --- Fig. 6: three controller failures (20 cases) ---

// BenchmarkFig6Programmability regenerates Fig. 6(a).
func BenchmarkFig6Programmability(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 3) {
			pm, _ := c.ProgBox("PM")
			rf, _ := c.ProgBox("RetroFlow")
			if pm.Median < rf.Median {
				b.Fatalf("case %s: PM median %.1f < RetroFlow %.1f", c.Label, pm.Median, rf.Median)
			}
		}
	}
}

// BenchmarkFig6TotalProgrammability regenerates Fig. 6(b).
func BenchmarkFig6TotalProgrammability(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 3) {
			if pct, ok := c.TotalProgPctOf("PM", "RetroFlow"); !ok || pct <= 100 {
				b.Fatalf("case %s: PM = %.1f%% of RetroFlow", c.Label, pct)
			}
		}
	}
}

// BenchmarkFig6RecoveredFlows regenerates Fig. 6(c): under three failures
// capacity is scarce, so PM recovers 100% only in a subset of cases — and in
// the tight cases it still matches the flow-level PG.
func BenchmarkFig6RecoveredFlows(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full, tight := 0, 0
		for _, c := range sweep(b, dep, flows, ctx, 3) {
			pm, _ := c.RecoveredFlowPct("PM")
			pg, _ := c.RecoveredFlowPct("PG")
			if pm >= 99.99 {
				full++
			} else {
				tight++
				if pg-pm > 1.0 {
					b.Fatalf("case %s: PM %.0f%% far below PG %.0f%%", c.Label, pm, pg)
				}
			}
		}
		if full == 0 || tight == 0 {
			b.Fatalf("expected a mix of full and tight cases, got %d/%d", full, tight)
		}
	}
}

// BenchmarkFig6RecoveredSwitches regenerates Fig. 6(d).
func BenchmarkFig6RecoveredSwitches(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 3) {
			pm, _ := c.RecoveredSwitchPct("PM")
			rf, _ := c.RecoveredSwitchPct("RetroFlow")
			if pm < rf {
				b.Fatalf("case %s: PM %.0f%% < RetroFlow %.0f%%", c.Label, pm, rf)
			}
		}
	}
}

// BenchmarkFig6ControllerLoad regenerates Fig. 6(e): in tight cases PM
// saturates the surviving controllers.
func BenchmarkFig6ControllerLoad(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 3) {
			if _, ok := c.ControllerLoadPct("PM"); !ok {
				b.Fatalf("case %s: missing loads", c.Label)
			}
		}
	}
}

// BenchmarkFig6Overhead regenerates Fig. 6(f).
func BenchmarkFig6Overhead(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 3) {
			pm, _ := c.PerFlowOverheadMs("PM")
			pg, _ := c.PerFlowOverheadMs("PG")
			if pg <= pm {
				b.Fatalf("case %s: PG %.2f <= PM %.2f", c.Label, pg, pm)
			}
		}
	}
}

// --- Fig. 7: computation time, PM vs Optimal ---

// BenchmarkFig7ComputationTime regenerates the Fig. 7 comparison on one
// representative case per scenario size with a bounded exact solve. The
// budget is a fixed node count, not wall clock: a time-limited solve always
// costs its own limit, so ns/op would measure the budget rather than the
// solver, and no optimization could ever show up. With the node budget the
// work is deterministic (same tree, same incumbents on every run) and ns/op
// tracks branch-&-bound throughput. PM must be orders of magnitude faster
// (the paper reports ~2% of Optimal's time).
func BenchmarkFig7ComputationTime(b *testing.B) {
	_, _, ctx := benchFixtures(b)
	cases := [][]int{{4}, {3, 4}, {2, 3, 4}}
	const nodeBudget = 256
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, failed := range cases {
			inst, err := ctx.Build(failed)
			if err != nil {
				b.Fatal(err)
			}
			warm, err := core.PM(inst.Problem)
			if err != nil {
				b.Fatal(err)
			}
			sol, err := opt.Solve(inst.Problem, opt.Options{
				TimeLimit: time.Hour, // the node budget is the binding limit
				MaxNodes:  nodeBudget,
				Warm:      warm,
			})
			if err != nil {
				continue // no incumbent within the node budget: still informative
			}
			if warm.Runtime >= sol.Runtime {
				b.Fatalf("case %v: PM (%v) not faster than Optimal (%v)", failed, warm.Runtime, sol.Runtime)
			}
		}
	}
}

// --- individual algorithm microbenches (the Fig. 7 ingredients) ---

func benchAlgorithm(b *testing.B, run func(*core.Problem) (*core.Solution, error)) {
	b.Helper()
	_, _, ctx := benchFixtures(b)
	inst, err := ctx.Build([]int{3, 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(inst.Problem); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgorithmPM times one PM solve of the headline case.
func BenchmarkAlgorithmPM(b *testing.B) { benchAlgorithm(b, core.PM) }

// BenchmarkAlgorithmRetroFlow times one RetroFlow solve of the headline case.
func BenchmarkAlgorithmRetroFlow(b *testing.B) { benchAlgorithm(b, core.RetroFlow) }

// BenchmarkAlgorithmPG times one PG solve of the headline case.
func BenchmarkAlgorithmPG(b *testing.B) { benchAlgorithm(b, core.PG) }

// --- ablations (design knobs called out in DESIGN.md) ---

// BenchmarkAblationSlack sweeps the path-counting hop slack: looser bounds
// inflate p̄ and slow counting.
func BenchmarkAblationSlack(b *testing.B) {
	dep, err := topo.ATT()
	if err != nil {
		b.Fatal(err)
	}
	for _, slack := range []int{1, 2} {
		b.Run(fmt.Sprintf("slack=%d", slack), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := flow.Generate(dep.Graph, flow.Options{Slack: slack}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPathCap sweeps the per-pair path-count cap, which bounds
// the p̄ distribution's spread (and with it the inter-algorithm gaps).
func BenchmarkAblationPathCap(b *testing.B) {
	dep, err := topo.ATT()
	if err != nil {
		b.Fatal(err)
	}
	for _, cap := range []int{4, 12, 48} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			flows, err := flow.Generate(dep.Graph, flow.Options{Limit: cap})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst, err := scenario.Build(dep, flows, []int{3, 4})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.PM(inst.Problem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPMIterations compares PM's balancing depth: a single
// sweep versus the paper's TOTAL_ITERATIONS sweeps.
func BenchmarkAblationPMIterations(b *testing.B) {
	_, _, ctx := benchFixtures(b)
	for _, iters := range []int{1, 0} { // 0 = paper default
		name := "default"
		if iters == 1 {
			name = "single-sweep"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inst, err := ctx.Build([]int{3, 4})
				if err != nil {
					b.Fatal(err)
				}
				if iters > 0 {
					inst.Problem.TotalIterations = iters
				}
				if _, err := core.PM(inst.Problem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkloadGeneration times the Table III ingredient in isolation.
func BenchmarkWorkloadGeneration(b *testing.B) {
	dep, err := topo.ATT()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Generate(dep.Graph, flow.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioBuild times cold failure-case compilation: context
// precomputation plus case assembly, as a one-shot caller would pay it.
func BenchmarkScenarioBuild(b *testing.B) {
	dep, flows, _ := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Build(dep, flows, []int{3, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioContextBuild times failure-case compilation from a shared
// context — the per-case cost a recovery or an ad-hoc plan pays. Iterations
// rotate through every 2-controller ATT case in lexicographic order: Build
// diffs against whatever case its pooled state compiled last, so repeating
// one case would time an empty diff and flatter the hot path. One untimed
// pass first grows the pooled state's arenas, so a -benchtime 1x record
// measures a steady-state case rather than one-time arena growth.
func BenchmarkScenarioContextBuild(b *testing.B) {
	dep, _, ctx := benchFixtures(b)
	cases := scenario.Combinations(len(dep.Controllers), 2)
	for _, failed := range cases {
		if _, err := ctx.Build(failed); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Build(cases[i%len(cases)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- solver scale benches: the sparse-simplex payoff beyond ATT ---

// scaleProblem compiles a single-controller-failure instance on the
// deterministic 100-node synthetic deployment: ~1 650 constraint rows and
// ~2 500 binaries — the scale where the dense explicit inverse's O(m³)
// refactorization is visibly superlinear and the eta file is not.
func scaleProblem(b *testing.B) *core.Problem {
	b.Helper()
	dep, err := topo.Synthetic(100, 8, 12000)
	if err != nil {
		b.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := scenario.Build(dep, flows, []int{0})
	if err != nil {
		b.Fatal(err)
	}
	return inst.Problem
}

func benchOptScale(b *testing.B, f lp.Factorization) {
	p := scaleProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := opt.SensitivitiesWith(p, lp.Options{Factorization: f})
		if err != nil {
			b.Fatal(err)
		}
		if s.Objective <= 0 {
			b.Fatalf("degenerate relaxation objective %v", s.Objective)
		}
	}
}

// millionFlowFixture is the carrier-scale input: a 1000-node synthetic
// deployment with ~10⁶ all-pairs flows (999 000 exactly). Generation takes
// ~30 s, so it is built once and shared; every benchmark iteration still
// compiles its failure case and solves from scratch.
var millionFlow struct {
	once  sync.Once
	dep   *topo.Deployment
	flows *flow.Set
	ctx   *scenario.Context
	err   error
}

func millionFlowFixture(b *testing.B) (*topo.Deployment, *flow.Set, *scenario.Context) {
	b.Helper()
	millionFlow.once.Do(func() {
		// Capacity clears the largest pre-failure domain load (~2.49 M flow
		// traversals at n=1000, m=10) with headroom for recovery.
		dep, err := topo.Synthetic(1000, 10, 2_600_000)
		if err != nil {
			millionFlow.err = err
			return
		}
		flows, err := flow.Generate(dep.Graph, flow.Options{})
		if err != nil {
			millionFlow.err = err
			return
		}
		ctx, err := scenario.NewContext(dep, flows)
		if err != nil {
			millionFlow.err = err
			return
		}
		millionFlow.dep, millionFlow.flows, millionFlow.ctx = dep, flows, ctx
	})
	if millionFlow.err != nil {
		b.Fatal(millionFlow.err)
	}
	return millionFlow.dep, millionFlow.flows, millionFlow.ctx
}

// BenchmarkMillionFlow times one depth-1 sweep case end to end at million-flow
// scale: failure-case compilation from the shared context plus a PM solve.
// This is the tentpole's headline path — the case compiles through the
// switch→flows CSR index (touching only flows that cross the failed domain)
// and PM plans over weighted equivalence classes instead of individual flows,
// which is what keeps the case in the hundreds of milliseconds instead of
// minutes.
func BenchmarkMillionFlow(b *testing.B) {
	_, flows, ctx := millionFlowFixture(b)
	if flows.Len() != 999_000 {
		b.Fatalf("flows = %d, want 999000", flows.Len())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := ctx.Build([]int{0})
		if err != nil {
			b.Fatal(err)
		}
		sol, err := core.PM(inst.Problem)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := inst.Evaluate(sol)
		if err != nil {
			b.Fatal(err)
		}
		if rep.RecoveredFlows == 0 {
			b.Fatal("no flows recovered at scale")
		}
		if i == 0 {
			classes := inst.Problem.ClassCount()
			if classes <= 0 {
				b.Fatalf("instance not class-aggregable (classes=%d)", classes)
			}
			b.ReportMetric(float64(inst.Problem.NumFlows), "offline-flows")
			b.ReportMetric(float64(classes), "classes")
			b.ReportMetric(float64(inst.Problem.NumFlows)/float64(classes), "flows/class")
		}
	}
}

// --- hierarchical region-sharded planning (DESIGN.md §15) ---

// hierWAN is the carrier-scale clustered fixture: 1000 switches, 50
// controllers, 8 natural clusters, all-pairs traffic (999 000 flows),
// capacity sized at 1.5x the heaviest pre-failure domain load. Workload
// generation takes ~30 s, so the fixture is built once and shared.
var hierWAN struct {
	once  sync.Once
	dep   *topo.Deployment
	flows *flow.Set
	ctx   *scenario.Context
	part  *region.Partition
	err   error
}

func hierWANFixture(b *testing.B) (*topo.Deployment, *flow.Set, *scenario.Context, *region.Partition) {
	b.Helper()
	hierWAN.once.Do(func() {
		const (
			n, m, k = 1000, 50, 8
			seed    = 1
		)
		opts := topo.SyntheticOpts{Seed: seed, Regions: k}
		dep, err := topo.SyntheticWithOpts(n, m, 1, opts)
		if err != nil {
			hierWAN.err = err
			return
		}
		flows, err := flow.Generate(dep.Graph, flow.Options{})
		if err != nil {
			hierWAN.err = err
			return
		}
		maxLoad := 0
		for _, c := range dep.Controllers {
			load := 0
			for _, sw := range c.Domain {
				load += flows.SwitchFlowCount(sw)
			}
			if load > maxLoad {
				maxLoad = load
			}
		}
		if dep, err = topo.SyntheticWithOpts(n, m, maxLoad+maxLoad/2+1, opts); err != nil {
			hierWAN.err = err
			return
		}
		ctx, err := scenario.NewContext(dep, flows)
		if err != nil {
			hierWAN.err = err
			return
		}
		part, err := region.New(dep, k, seed)
		if err != nil {
			hierWAN.err = err
			return
		}
		hierWAN.dep, hierWAN.flows, hierWAN.ctx, hierWAN.part = dep, flows, ctx, part
	})
	if hierWAN.err != nil {
		b.Fatal(hierWAN.err)
	}
	return hierWAN.dep, hierWAN.flows, hierWAN.ctx, hierWAN.part
}

// BenchmarkHierarchical1000 is the tentpole headline: a full depth-1 sweep
// (50 failure cases) of the 1000-node / 50-controller clustered WAN, solving
// every case with flat PM and with the hierarchical region-sharded PM on the
// same instance. The whole sweep — case compilation included — lands in
// seconds, and the per-case mean solve times of both algorithms go into the
// JSON as case-flat-ms / case-hier-ms: the documented comparison against the
// flat-PM baseline at the largest size flat can still finish. Flat runs
// first, so the per-case flow-class index (built once and shared by both
// solvers) is charged to the baseline exactly as a standalone flat sweep
// would pay it; the hierarchical times are planning proper — region slices,
// class-index derivation per slice, border coordination, and two improver
// rounds. On a single-core host the hierarchical solve costs a small constant
// factor over flat (its region solves serialize); its worker-pool parallelism
// across touched regions is asserted byte-identical by the region tests.
func BenchmarkHierarchical1000(b *testing.B) {
	dep, flows, ctx, part := hierWANFixture(b)
	algs := []eval.Algorithm{
		{Name: "PM", Run: func(inst *scenario.Instance) (*core.Solution, error) {
			return core.PM(inst.Problem)
		}},
		eval.HierPM(part, region.SolveOptions{ImproveRounds: 2}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cases, err := eval.SweepOpts(dep, flows, 1, algs, eval.Options{Context: ctx})
		if err != nil {
			b.Fatal(err)
		}
		if len(cases) != len(dep.Controllers) {
			b.Fatalf("swept %d cases, want %d", len(cases), len(dep.Controllers))
		}
		for _, c := range cases {
			for _, name := range []string{"PM", "PM-H"} {
				rep := c.Report(name)
				if rep == nil {
					b.Fatalf("case %s: no %s result", c.Label, name)
				}
				if rep.RecoveredFlows == 0 {
					b.Fatalf("case %s: %s recovered no flows", c.Label, name)
				}
			}
		}
		if i == 0 {
			flatMean, _ := eval.MeanRuntime(cases, "PM")
			hierMean, _ := eval.MeanRuntime(cases, "PM-H")
			b.ReportMetric(float64(flatMean.Microseconds())/1000, "case-flat-ms")
			b.ReportMetric(float64(hierMean.Microseconds())/1000, "case-hier-ms")
			b.ReportMetric(float64(len(part.Border)), "border-switches")
		}
	}
}

// BenchmarkRegionPartition times the deterministic partitioner on the
// 1000-node WAN. A single partition is around a millisecond — inside timer
// noise on a contended host at the suite's -benchtime — so ns/op is
// overridden with the fastest of 8 builds per iteration, the same robust-min
// pattern the plan-store benches use.
func BenchmarkRegionPartition(b *testing.B) {
	dep, _, _, _ := hierWANFixture(b)
	minNs := math.MaxFloat64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 8; r++ {
			t0 := time.Now()
			part, err := region.New(dep, 8, 1)
			if err != nil {
				b.Fatal(err)
			}
			if d := float64(time.Since(t0).Nanoseconds()); d < minNs {
				minNs = d
			}
			if len(part.Border) == 0 {
				b.Fatal("degenerate partition: no border")
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(minNs, "ns/op")
}

// BenchmarkOptScaleSparse times the compact model's LP relaxation on the
// 100-node instance with the product-form eta file.
func BenchmarkOptScaleSparse(b *testing.B) { benchOptScale(b, lp.FactorSparse) }

// BenchmarkOptScaleDense times the same relaxation with the dense explicit
// inverse the solver used before the sparse rewrite; the gap between this
// bench and BenchmarkOptScaleSparse is the tentpole's headline number.
func BenchmarkOptScaleDense(b *testing.B) { benchOptScale(b, lp.FactorDense) }

// --- extension benches (beyond the paper; see EXPERIMENTS.md) ---

// BenchmarkExtensionCascade measures a cascading-failure episode per
// algorithm granularity and asserts the robustness ordering: at the same
// trigger, switch-level recovery never outlives per-flow recovery.
func BenchmarkExtensionCascade(b *testing.B) {
	dep, flows, _ := benchFixtures(b)
	algs := heuristicAlgorithms()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pmRes, err := eval.Cascade(dep, flows, []int{3}, algs[0], 0.95)
		if err != nil {
			b.Fatal(err)
		}
		rfRes, err := eval.Cascade(dep, flows, []int{3}, algs[1], 0.95)
		if err != nil {
			b.Fatal(err)
		}
		if pmRes.Collapsed && !rfRes.Collapsed {
			b.Fatal("PM cascaded further than RetroFlow at the same trigger")
		}
	}
}

// BenchmarkExtensionSuccessiveChurn measures recovery churn across a
// two-step successive failure.
func BenchmarkExtensionSuccessiveChurn(b *testing.B) {
	dep, flows, _ := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps, err := scenario.BuildSuccessive(dep, flows, []int{3, 4})
		if err != nil {
			b.Fatal(err)
		}
		prev, err := core.PM(steps[0].Instance.Problem)
		if err != nil {
			b.Fatal(err)
		}
		next, err := core.PM(steps[1].Instance.Problem)
		if err != nil {
			b.Fatal(err)
		}
		churn := eval.Churn(steps[0].Instance, prev, steps[1].Instance, next)
		if churn.CommonSwitches == 0 {
			b.Fatal("no common switches across successive steps")
		}
	}
}

// BenchmarkPlanStoreLookup measures the plan store's failure-path cost — an
// Exact binary search plus zero-allocation delta decode into a reused shell —
// and reports the speedup over solving the same case fresh with core.PM as
// solve-speedup-x (the acceptance floor is 100×). A single lookup is around
// a hundred nanoseconds, far below timer noise at the suite's -benchtime 1x,
// so the loop runs batches of 32768 lookups and overrides ns/op with the
// robust per-lookup minimum (see the chunk comment below) — the figure the
// perf gate compares across baselines.
func BenchmarkPlanStoreLookup(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	path := filepath.Join(b.TempDir(), "att.pmps")
	if _, err := planstore.Compile(dep, flows, path, planstore.CompileOptions{Depth: 2, Context: ctx}); err != nil {
		b.Fatal(err)
	}
	st, err := planstore.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	inst, err := ctx.Build([]int{3, 4})
	if err != nil {
		b.Fatal(err)
	}

	// Warm both paths (and the CPU's frequency governor) before pricing
	// either: a cold run understates the solve and overstates the lookup.
	const lookupsPerOp = 32768
	sol := core.NewSolution("PM", inst.Problem)
	for l := 0; l < lookupsPerOp; l++ {
		rec, ok := st.Exact(inst.Failed)
		if !ok {
			b.Fatal("compiled case {3,4} absent from the store")
		}
		if err := st.DecodeInto(rec, inst, sol); err != nil {
			b.Fatal(err)
		}
	}

	// Price the path the store replaces: a fresh PM solve of the same case.
	// Both sides are measured as minima over repeated slices — preemption on
	// a busy host only ever adds time, so the minimum is the robust estimate
	// of the true cost at the suite's tiny -benchtime.
	const solveRounds = 20
	solveNs := math.MaxFloat64
	for i := 0; i < solveRounds; i++ {
		t0 := time.Now()
		if _, err := core.PM(inst.Problem); err != nil {
			b.Fatal(err)
		}
		if d := float64(time.Since(t0).Nanoseconds()); d < solveNs {
			solveNs = d
		}
	}

	// 256 chunks of 128 lookups per op: each chunk is tens of microseconds,
	// short enough that most chunks land inside a clean scheduling window
	// even on a contended host, so the min converges fast.
	const chunk = 128
	minChunkNs := math.MaxFloat64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for base := 0; base < lookupsPerOp; base += chunk {
			t0 := time.Now()
			for l := 0; l < chunk; l++ {
				rec, ok := st.Exact(inst.Failed)
				if !ok {
					b.Fatal("compiled case {3,4} absent from the store")
				}
				if err := st.DecodeInto(rec, inst, sol); err != nil {
					b.Fatal(err)
				}
			}
			if d := float64(time.Since(t0).Nanoseconds()); d < minChunkNs {
				minChunkNs = d
			}
		}
	}
	b.StopTimer()
	if perLookup := minChunkNs / chunk; perLookup > 0 {
		b.ReportMetric(perLookup, "ns/op")
		b.ReportMetric(solveNs/perLookup, "solve-speedup-x")
	}
}

// sweepDeltaFixture compiles the delta-sweep bench input once: a 100-node /
// 8-controller synthetic WAN (~9 900 all-pairs flows) whose depth-3 failure
// enumeration (56 cases) is deep enough that Gray-adjacent cases share two
// of their three failed domains.
var sweepDeltaOnce struct {
	sync.Once
	ctx    *scenario.Context
	combos [][]int
	err    error
}

func sweepDeltaFixture(b *testing.B) (*scenario.Context, [][]int) {
	b.Helper()
	sweepDeltaOnce.Do(func() {
		dep, err := topo.Synthetic(100, 8, 12000)
		if err != nil {
			sweepDeltaOnce.err = err
			return
		}
		flows, err := flow.Generate(dep.Graph, flow.Options{})
		if err != nil {
			sweepDeltaOnce.err = err
			return
		}
		ctx, err := scenario.NewContext(dep, flows)
		if err != nil {
			sweepDeltaOnce.err = err
			return
		}
		sweepDeltaOnce.ctx = ctx
		sweepDeltaOnce.combos = scenario.Combinations(len(dep.Controllers), 3)
	})
	if sweepDeltaOnce.err != nil {
		b.Fatal(sweepDeltaOnce.err)
	}
	return sweepDeltaOnce.ctx, sweepDeltaOnce.combos
}

// BenchmarkSweepDelta prices case compilation through the sweep engine on
// a depth-3 enumeration: ns/op is the full-sweep time (min over iterations,
// robust to host contention). fn is a trivial consistency check so the
// number isolates compilation: with real solves the pipelining hides most of
// the compile cost behind the solves.
func BenchmarkSweepDelta(b *testing.B) {
	ctx, combos := sweepDeltaFixture(b)
	minNs := math.MaxFloat64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var flowsSeen atomic.Int64
		t0 := time.Now()
		err := eval.ForEachCase(ctx, combos, 0, func(idx int, inst *scenario.Instance) error {
			if inst.Problem.NumFlows == 0 {
				return fmt.Errorf("case %v compiled empty", combos[idx])
			}
			flowsSeen.Add(int64(inst.Problem.NumFlows))
			return nil
		})
		if d := float64(time.Since(t0).Nanoseconds()); d < minNs {
			minNs = d
		}
		if err != nil {
			b.Fatal(err)
		}
		if flowsSeen.Load() == 0 {
			b.Fatal("sweep visited no flows")
		}
	}
	b.StopTimer()
	b.ReportMetric(minNs, "ns/op")
}

// BenchmarkPlanStoreCompile measures the offline cost the lookup path
// amortizes: a full depth-2 sweep of the ATT deployment (21 cases) solved,
// delta-encoded, and written atomically. Like the lookup bench, ns/op is
// overridden with the fastest iteration so the perf gate compares real
// compile cost rather than host contention.
func BenchmarkPlanStoreCompile(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	path := filepath.Join(b.TempDir(), "att.pmps")
	minNs := math.MaxFloat64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		stats, err := planstore.Compile(dep, flows, path, planstore.CompileOptions{Depth: 2, Context: ctx})
		if err != nil {
			b.Fatal(err)
		}
		if d := float64(time.Since(t0).Nanoseconds()); d < minNs {
			minNs = d
		}
		if stats.Entries != 21 {
			b.Fatalf("depth-2 ATT sweep compiled %d plans, want 21", stats.Entries)
		}
	}
	b.StopTimer()
	b.ReportMetric(minNs, "ns/op")
}
