package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/planstore"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

const (
	wanNodes       = 300
	wanControllers = 10
	// wanStoreDepth is the compiled depth (10+45 = 55 plans); planning
	// covers depth wanPlanDepth (175 sets), so depth-3 sets miss.
	wanStoreDepth = 2
	wanPlanDepth  = 3
)

// wanLayers are the per-layer metrics wan300-plan reports.
var wanLayers = []metricDef{
	{"scenario.build_p50_ms", "ms"},
	{"scenario.build_busy_s", "s"},
	{"scenario.offline_flows_mean", "count"},
	{"core.pm_p50_ms", "ms"},
	{"core.pm_busy_s", "s"},
	{"core.flows_per_class", "ratio"},
	{"planstore.compile_solve_busy_s", "s"},
	{"planstore.bytes", "bytes"},
	{"planstore.entries", "count"},
	{"planstore.consult_hit_us", "us"},
	{"planstore.hit_ratio", "ratio"},
	{"eval.parallelism", "ratio"},
	{"share.build_pm_of_miss_pct", "%"},
}

// wanEnv is carrier-scale planning on a seeded 300-node synthetic WAN with
// all-pairs traffic: the offline plan-store compile, then failure-time
// planning (Build + Consult, plus PM on a miss) for every depth-1..3 set.
type wanEnv struct {
	dep   *topo.Deployment
	flows *flow.Set
	ctx   *scenario.Context
	sets  [][]int
	path  string
	ps    *planstore.Store
	// The gate keeps digests, not copies, so the heap measured after a phase
	// holds the program's state and not the gate's. firstFile is the digest
	// of the first compile's output; every later compile must write the same
	// bytes. refs holds the digest of a fresh PM of each hit set (PM is
	// deterministic).
	firstFile *[sha256.Size]byte
	refs      map[string][sha256.Size]byte
}

// planDigest hashes the parts of a plan a store hit must reproduce.
func planDigest(sol *core.Solution) [sha256.Size]byte {
	h := sha256.New()
	for _, c := range sol.SwitchController {
		_ = binary.Write(h, binary.LittleEndian, int64(c))
	}
	_ = binary.Write(h, binary.LittleEndian, sol.Active)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func setupWANPlan(cfg *runConfig, _ *tracer) (env, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	// The seed drives the layout; +1 keeps seed 0 off the generator's
	// unperturbed legacy grid.
	opts := topo.SyntheticOpts{Seed: uint64(cfg.seed) + 1}
	dep, err := topo.SyntheticWithOpts(wanNodes, wanControllers, 1, opts)
	if err != nil {
		return nil, st, err
	}
	tf := time.Now()
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		return nil, st, err
	}
	st.flowGen = time.Since(tf)
	// Capacity is 1.5x the heaviest pre-failure domain load; the graph does
	// not depend on it, so the flows generated above stay valid.
	maxLoad := 0
	for _, c := range dep.Controllers {
		load := 0
		for _, sw := range c.Domain {
			load += flows.SwitchFlowCount(sw)
		}
		maxLoad = max(maxLoad, load)
	}
	if dep, err = topo.SyntheticWithOpts(wanNodes, wanControllers, maxLoad+maxLoad/2, opts); err != nil {
		return nil, st, err
	}
	tc := time.Now()
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		return nil, st, err
	}
	st.context = time.Since(tc)
	st.total = time.Since(t0)
	return &wanEnv{
		dep: dep, flows: flows, ctx: ctx,
		sets: scenario.CombinationsUpTo(wanControllers, wanPlanDepth),
		path: filepath.Join(cfg.work, "wan300.pmps"),
		refs: map[string][sha256.Size]byte{},
	}, st, nil
}

func (e *wanEnv) close() error {
	if e.ps != nil {
		err := e.ps.Close()
		e.ps = nil
		return err
	}
	return nil
}

func (e *wanEnv) run(tr *tracer, p *phase) {
	var (
		compileRoots, missRoots, hitRoots []int
		entries, fileBytes                float64
		qRec, qMin, qTot, qRef, offline   []float64
		flowsPerClass                     []float64
		fallbacks                         int
	)
	solve := core.PM
	if tr != nil {
		solve = func(pr *core.Problem) (*core.Solution, error) {
			id := tr.begin("planstore.compile_solve")
			defer tr.end(id)
			return core.PM(pr)
		}
	}
	for round := 0; !p.enough(); round++ {
		// The offline job: compile the depth-2 store.
		root := tr.beginOp("op.compile")
		t := time.Now()
		stats, err := planstore.Compile(e.dep, e.flows, e.path, planstore.CompileOptions{
			Depth: wanStoreDepth, Context: e.ctx, Solve: solve,
		})
		d := time.Since(t)
		tr.endOp(root)
		p.attempted++
		if err != nil {
			p.fail("compile: %v", err)
			return
		}
		p.addBatch(d)
		compileRoots = append(compileRoots, root)
		entries, fileBytes = float64(stats.Entries), float64(stats.Bytes)
		if !e.checkCompile(p, stats) {
			return
		}

		complete := true
		for _, set := range e.sets {
			if round > 0 && p.enough() {
				complete = false
				break
			}
			root := tr.beginOp("op.plan")
			t := time.Now()
			id := tr.begin("scenario.build")
			inst, err := e.ctx.Build(set)
			tr.end(id)
			var (
				sol     *core.Solution
				outcome planstore.Outcome
			)
			if err == nil {
				id = tr.begin("planstore.consult")
				sol, outcome, err = e.ps.Consult(e.ctx, inst, core.PM)
				tr.end(id)
			}
			if err == nil && outcome == planstore.OutcomeMiss {
				id = tr.begin("core.pm")
				sol, err = core.PM(inst.Problem)
				tr.end(id)
			}
			d := time.Since(t)
			tr.endOp(root)
			p.attempted++
			if err != nil {
				p.fail("plan %v: %v", set, err)
				continue
			}
			hit := outcome == planstore.OutcomeHit
			if hit {
				p.addAlt(d)
				hitRoots = append(hitRoots, root)
			} else {
				p.addMain(d)
				missRoots = append(missRoots, root)
			}
			if outcome == planstore.OutcomeFallback {
				fallbacks++
			}
			rep, ok := e.checkPlan(p, set, inst, sol, outcome)
			if !ok || round > 0 {
				continue
			}
			qRec = append(qRec, 100*float64(rep.RecoveredFlows)/float64(inst.OfflineFlowCount()))
			qMin = append(qMin, float64(rep.MinProg))
			qTot = append(qTot, float64(rep.TotalProg))
			if hit {
				qRef = append(qRef, float64(rep.TotalProg))
			}
			offline = append(offline, float64(inst.OfflineFlowCount()))
			if tr != nil && !hit {
				if c := inst.Problem.ClassCount(); c > 0 {
					flowsPerClass = append(flowsPerClass, float64(inst.Problem.NumFlows)/float64(c))
				}
			}
		}
		if complete {
			p.endPass()
		}
	}
	p.q = quality{mean(qRec), mean(qMin), mean(qTot), mean(qRef)}
	hitRatio := float64(len(p.alt)) / float64(max(len(p.alt)+len(p.main), 1))
	p.table = append(p.table,
		fmt.Sprintf("wan300-plan: %d nodes, %d controllers (capacity %d), %d flows; %d compiles, %d plan requests",
			wanNodes, wanControllers, e.dep.Controllers[0].Capacity, e.flows.Len(), len(p.batch), len(p.main)+len(p.alt)),
		fmt.Sprintf("store_compile_s %.4f s (median over complete rounds; %d compiles, %g plans, %g bytes)", p.batchS(), len(p.batch), entries, fileBytes),
		fmt.Sprintf("plan_miss_p50_ms %.4f ms, plan_miss_p90_ms %.4f ms (n=%d)", p.mainP50(), p.mainP90(), len(p.main)),
		fmt.Sprintf("plan_hit_p50_ms %.4f ms (n=%d); hit ratio %.4f, %d fallbacks", p.altP50(), len(p.alt), hitRatio, fallbacks),
		fmt.Sprintf("PM plans: recovered_flow_pct %.4f, min_prog_mean %.4f, total_prog_mean %.4f (store-served %.4f)",
			p.q.recoveredPct, p.q.minProgMean, p.q.totalProgMean, p.q.refTotalProgMean))
	if tr == nil {
		return
	}

	spans := tr.snapshot()
	byID := spanIndex(spans)
	var consultUs []float64
	inMiss, inHit, inCompile := idSet(missRoots), idSet(hitRoots), idSet(compileRoots)
	var compileWall, compileSolve, missWall, missBuildPM time.Duration
	for _, s := range spans {
		switch {
		case inCompile[s.Parent]:
			compileSolve += s.dur()
		case inHit[s.Parent] && s.Name == "planstore.consult":
			consultUs = append(consultUs, float64(s.dur())/float64(time.Microsecond))
		case inMiss[s.Parent]:
			if s.Name == "scenario.build" || s.Name == "core.pm" {
				missBuildPM += s.dur()
			}
		}
	}
	for _, id := range compileRoots {
		compileWall += byID[id].dur()
	}
	for _, id := range missRoots {
		missWall += byID[id].dur()
	}
	names := byName(spans)
	p.layers = map[string]float64{
		"scenario.offline_flows_mean":    mean(offline),
		"core.flows_per_class":           mean(flowsPerClass),
		"planstore.compile_solve_busy_s": compileSolve.Seconds(),
		"planstore.bytes":                fileBytes,
		"planstore.entries":              entries,
		"planstore.hit_ratio":            hitRatio,
	}
	if len(consultUs) > 0 {
		p.layers["planstore.consult_hit_us"] = median(consultUs)
	}
	if compileWall > 0 {
		p.layers["eval.parallelism"] = float64(compileSolve) / float64(compileWall)
	}
	if missWall > 0 {
		p.layers["share.build_pm_of_miss_pct"] = 100 * float64(missBuildPM) / float64(missWall)
	}
	addLayer(p.layers, names, "scenario.build", "scenario.build_p50_ms", "scenario.build_busy_s")
	addLayer(p.layers, names, "core.pm", "core.pm_p50_ms", "core.pm_busy_s")
	p.table = append(p.table, fmt.Sprintf("claim: build + PM are %.1f%% of plan-miss time (build p50 %.4f ms, PM p50 %.4f ms, miss p50 %.4f ms): %s",
		p.layers["share.build_pm_of_miss_pct"], p.layers["scenario.build_p50_ms"], p.layers["core.pm_p50_ms"],
		p.mainP50(), holds(p.layers["share.build_pm_of_miss_pct"] > 50)))
}

// checkCompile is the gate after a compile: 55 depth-2 plans, the same bytes
// every time, and a store that opens.
func (e *wanEnv) checkCompile(p *phase, stats *planstore.CompileStats) bool {
	if stats.Entries != len(scenario.CombinationsUpTo(wanControllers, wanStoreDepth)) || stats.Depth != wanStoreDepth {
		p.fail("compile wrote %d plans to depth %d", stats.Entries, stats.Depth)
		return false
	}
	raw, err := os.ReadFile(e.path)
	if err != nil {
		p.fail("read store: %v", err)
		return false
	}
	sum := sha256.Sum256(raw)
	if e.firstFile == nil {
		e.firstFile = &sum
	} else if sum != *e.firstFile {
		p.fail("compile is not deterministic: its %d bytes differ from the first compile's", len(raw))
		return false
	}
	if err := e.close(); err != nil {
		p.fail("close store: %v", err)
		return false
	}
	if e.ps, err = planstore.Open(e.path); err != nil {
		p.fail("open store: %v", err)
		return false
	}
	return true
}

// checkPlan is the gate after a plan request: hits exactly for the compiled
// depths, every plan passes Evaluate (which runs Verify), and every hit
// equals a fresh PM solve.
func (e *wanEnv) checkPlan(p *phase, set []int, inst *scenario.Instance, sol *core.Solution, outcome planstore.Outcome) (*core.Report, bool) {
	if want := len(set) <= wanStoreDepth; (outcome == planstore.OutcomeHit) != want {
		p.fail("plan %v: outcome %v, want hit=%v", set, outcome, want)
		return nil, false
	}
	rep, err := inst.Evaluate(sol)
	if err != nil {
		p.fail("plan %v: %v", set, err)
		return nil, false
	}
	if outcome != planstore.OutcomeHit {
		return rep, true
	}
	key := fmt.Sprint(set)
	ref, ok := e.refs[key]
	if !ok {
		fresh, err := core.PM(inst.Problem)
		if err != nil {
			p.fail("plan %v: reference PM: %v", set, err)
			return nil, false
		}
		ref = planDigest(fresh)
		e.refs[key] = ref
	}
	if planDigest(sol) != ref {
		p.fail("plan %v: store hit differs from a fresh PM solve", set)
		return nil, false
	}
	return rep, true
}
