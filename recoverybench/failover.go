package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/medic"
	"pmedic/internal/monitor"
	"pmedic/internal/scenario"
	"pmedic/internal/sdnsim"
	"pmedic/internal/store"
	"pmedic/internal/topo"
)

// pollPeriod is how often the client polls medic.Status while it waits for
// convergence. The sleep's real granularity is coarser (an idle 100 µs
// sleep lasts about 1.1 ms on a 2-vCPU Linux VM), which the latencies
// include.
const pollPeriod = 100 * time.Microsecond

// opTimeout bounds one failover op; a medic that has not converged by then
// failed the op.
const opTimeout = 10 * time.Second

// failoverLayers are the per-layer metrics att-failover reports.
var failoverLayers = []metricDef{
	{"sdnsim.push_p50_ms", "ms"},
	{"sdnsim.push_busy_s", "s"},
	{"sdnsim.flow_mods_per_recovery", "count"},
	{"sdnsim.push_rounds", "count"},
	{"sdnsim.push_retries", "count"},
	{"sdnsim.restore_p50_ms", "ms"},
	{"sdnsim.restore_busy_s", "s"},
	{"medic.self_p50_ms", "ms"},
	{"medic.stale_plans", "count"},
	{"medic.reconciles_per_cycle", "count"},
	{"store.fsyncs_per_recovery", "count"},
	{"store.checkpoints", "count"},
	{"scenario.offline_flows_mean", "count"},
	{"core.pm_p50_ms", "ms"},
	{"core.pm_busy_s", "s"},
	{"share.push_of_recovery_pct", "%"},
}

// failoverEnv is the online daemon stack on ATT, in-process: one sdnsim
// agent per switch on loopback TCP, the medic wired to the Network with an
// fsync'd WAL and no plan store, and a closed-loop client that hands
// monitor.Events straight to the medic (the timer-bound detector is left
// out).
type failoverEnv struct {
	// ctx is the correctness gate's own context, dropped once refs holds
	// every set.
	ctx    *scenario.Context
	net    *sdnsim.Network
	agents []*sdnsim.Agent
	wal    *store.Store
	walDir string
	m      *medic.Medic
	// events is unbuffered: a send completes when the medic's loop takes
	// the event, so the timer starts at the hand-off, not while the loop
	// is still persisting the previous outcome.
	events chan monitor.Event
	seq    uint64
	order  [][]int // every 1-3-controller failure set, seed-shuffled
	ideal  []int

	refs map[string]reference // fresh PM+Evaluate per set, by key
}

// reference is what the correctness gate's own solve of one failure set
// achieves.
type reference struct {
	recovered, minProg, totalProg, offline int
}

func setupFailover(cfg *runConfig, tr *tracer) (env, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	dep, flows, ctx, err := buildATT(&st)
	if err != nil {
		return nil, st, err
	}
	net, err := sdnsim.New(dep, flows)
	if err != nil {
		return nil, st, err
	}
	e := &failoverEnv{ctx: ctx, net: net,
		events: make(chan monitor.Event), refs: map[string]reference{}}
	agents := make(map[topo.NodeID]*sdnsim.Agent, len(net.Switches))
	for _, sw := range net.Switches {
		a, err := sdnsim.ServeSwitch(sw, "127.0.0.1:0")
		if err != nil {
			_ = e.close()
			return nil, st, err
		}
		agents[sw.ID] = a
		e.agents = append(e.agents, a)
	}
	if e.walDir, err = os.MkdirTemp(cfg.work, "wal-"); err != nil {
		_ = e.close()
		return nil, st, err
	}
	if e.wal, err = store.Open(e.walDir, store.Options{}); err != nil {
		_ = e.close()
		return nil, st, err
	}
	mcfg := medic.Config{
		Dep:   dep,
		Flows: flows,
		Addrs: sdnsim.AgentAddrs(agents),
		Net:   net,
		Push:  sdnsim.PushOptions{Seed: cfg.seed},
		Store: e.wal,
	}
	if tr != nil {
		mcfg.Solve = func(p *core.Problem) (*core.Solution, error) {
			id := tr.begin("core.pm")
			defer tr.end(id)
			return core.PM(p)
		}
		mcfg.Pusher = func(addrs map[topo.NodeID]string, flows *flow.Set, inst *scenario.Instance,
			sol *core.Solution, opts sdnsim.PushOptions) (*sdnsim.RecoveryReport, error) {
			id := tr.begin("sdnsim.push")
			defer tr.end(id)
			return sdnsim.PushRecoveryResilient(addrs, flows, inst, sol, opts)
		}
		mcfg.Restorer = func(addrs map[topo.NodeID]string, flows *flow.Set, switches []topo.NodeID,
			opts sdnsim.PushOptions) (*sdnsim.RestoreReport, error) {
			id := tr.begin("sdnsim.restore")
			defer tr.end(id)
			return sdnsim.RestoreIdeal(addrs, flows, switches, opts)
		}
	}
	if e.m, err = medic.New(mcfg); err != nil {
		_ = e.close()
		return nil, st, err
	}
	e.m.Start(e.events)
	st.total = time.Since(t0)

	e.order = scenario.CombinationsUpTo(len(dep.Controllers), 3)
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(e.order), func(a, b int) {
		e.order[a], e.order[b] = e.order[b], e.order[a]
	})
	e.ideal = make([]int, len(net.Switches))
	for j, c := range dep.Controllers {
		for _, sw := range c.Domain {
			e.ideal[sw] = j
		}
	}
	return e, st, nil
}

func (e *failoverEnv) close() error {
	if e.m != nil {
		e.m.Stop()
	}
	for _, a := range e.agents {
		_ = a.Close()
	}
	var err error
	if e.wal != nil {
		err = e.wal.Close()
	}
	if e.walDir != "" {
		if rmErr := os.RemoveAll(e.walDir); err == nil {
			err = rmErr
		}
	}
	return err
}

// lifecycle applies a Network lifecycle call to every controller of set.
func (e *failoverEnv) lifecycle(set []int, call func(int) error) error {
	for _, j := range set {
		if err := call(j); err != nil {
			return err
		}
	}
	return nil
}

// send hands one event to the medic and returns when the loop has taken it.
func (e *failoverEnv) send(ev monitor.Event) {
	e.seq++
	ev.Seq = e.seq
	ev.At = time.Now()
	e.events <- ev
}

// await polls Status until cond holds for the current epoch.
func (e *failoverEnv) await(cond func(medic.Status) bool) (medic.Status, error) {
	deadline := time.Now().Add(opTimeout)
	for {
		st := e.m.Status()
		if st.Epoch == e.seq && cond(st) {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("epoch %d not converged within %v (converged=%v ideal=%v case=%q)",
				e.seq, opTimeout, st.Converged, st.Ideal, st.Case)
		}
		time.Sleep(pollPeriod)
	}
}

// references solves every failure set once with a fresh core.PM + Evaluate,
// before the first timed phase, then drops the gate's context, so the
// heap measured after the phase holds the program's state and not the
// gate's.
func (e *failoverEnv) references() error {
	if e.ctx == nil {
		return nil
	}
	for _, set := range e.order {
		inst, err := e.ctx.Build(set)
		if err != nil {
			return err
		}
		sol, err := core.PM(inst.Problem)
		if err != nil {
			return err
		}
		rep, err := inst.Evaluate(sol)
		if err != nil {
			return err
		}
		e.refs[fmt.Sprint(set)] = reference{recovered: rep.RecoveredFlows, minProg: rep.MinProg,
			totalProg: rep.TotalProg, offline: inst.OfflineFlowCount()}
	}
	e.ctx = nil
	return nil
}

// flowMods totals the flow-mods every agent has applied.
func (e *failoverEnv) flowMods() int {
	n := 0
	for _, a := range e.agents {
		n += a.FlowModsApplied()
	}
	return n
}

// medicCounters reads the push-retry and reconcile counters from the
// medic's Prometheus text (its public metrics surface).
func (e *failoverEnv) medicCounters() (retries, reconciles float64) {
	var b strings.Builder
	_, _ = e.m.Metrics().WriteTo(&b)
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch f[0] {
		case "pmedicd_push_retries_total":
			retries = v
		case "pmedicd_reconcile_duration_seconds_count":
			reconciles = v
		}
	}
	return retries, reconciles
}

func (e *failoverEnv) run(tr *tracer, p *phase) {
	if err := e.references(); err != nil {
		p.fail("reference solves: %v", err)
		return
	}
	fsync0, ckpt0 := e.wal.Fsyncs(), e.wal.Checkpoints()
	retries0, reconciles0 := e.medicCounters()
	var (
		recRoots         []int
		mods, pushRounds int
		stale            int
		lastLog          uint64
		qRec, qMin, qTot []float64
		qRef             []float64
		cycles           int
	)
	if st := e.m.Status(); len(st.Events) > 0 {
		lastLog = st.Events[len(st.Events)-1].Seq
	}
	countStale := func(st medic.Status) {
		for _, ev := range st.Events {
			if ev.Seq > lastLog {
				lastLog = ev.Seq
				if ev.Kind == medic.KindStale {
					stale++
				}
			}
		}
	}

	for pass := 0; !p.enough(); pass++ {
		var passWall time.Duration
		complete := true
		for _, set := range e.order {
			if pass > 0 && p.enough() {
				complete = false
				break
			}
			// Failure: the controllers die, then the event reaches the medic.
			if err := e.lifecycle(set, e.net.StopController); err != nil {
				p.fail("stop %v: %v", set, err)
				return
			}
			mods0 := e.flowMods()
			tSend := time.Now()
			e.send(monitor.Event{Failed: set})
			tRecv := time.Now()
			root := tr.beginOp("op.recovery")
			st, err := e.await(func(s medic.Status) bool { return s.Converged && !s.Ideal })
			tDone := time.Now()
			tr.endOp(root)
			p.attempted++
			if err != nil {
				p.fail("recovery %v: %v", set, err)
				return
			}
			p.addMain(tDone.Sub(tRecv))
			passWall += tDone.Sub(tSend)
			recRoots = append(recRoots, root)
			mods += e.flowMods() - mods0
			pushRounds += st.PushRounds
			countStale(st)
			ok := e.checkRecovery(p, set, st)
			if ok && pass == 0 {
				ref := e.refs[fmt.Sprint(set)]
				qRec = append(qRec, 100*float64(st.RecoveredFlows)/float64(st.OfflineFlows))
				qMin = append(qMin, float64(st.MinProg))
				qTot = append(qTot, float64(st.TotalProg))
				qRef = append(qRef, float64(ref.totalProg))
			}

			// Return: the controllers come back, then the event.
			if err := e.lifecycle(set, e.net.StartController); err != nil {
				p.fail("start %v: %v", set, err)
				return
			}
			tSend = time.Now()
			e.send(monitor.Event{Recovered: set})
			tRecv = time.Now()
			root = tr.beginOp("op.failback")
			st, err = e.await(func(s medic.Status) bool { return s.Converged && s.Ideal })
			tDone = time.Now()
			tr.endOp(root)
			p.attempted++
			if err != nil {
				p.fail("failback %v: %v", set, err)
				return
			}
			p.addAlt(tDone.Sub(tRecv))
			passWall += tDone.Sub(tSend)
			countStale(st)
			e.checkFailback(p, set, st)
			cycles++
		}
		if complete {
			p.addBatch(passWall)
			p.endPass()
		}
	}
	if hits, fallbacks, misses, errs := e.m.Metrics().PlanStoreCounts(); hits+fallbacks+misses+errs != 0 {
		p.fail("plan store consulted with none wired: %d/%d/%d/%d", hits, fallbacks, misses, errs)
	}
	p.q = quality{mean(qRec), mean(qMin), mean(qTot), mean(qRef)}
	p.table = append(p.table,
		fmt.Sprintf("att-failover: %d failure/return cycles over %d distinct sets; Status polled every %v", cycles, len(e.order), pollPeriod),
		fmt.Sprintf("recovery_p50_ms %.4f ms, recovery_p90_ms %.4f ms (n=%d)", p.mainP50(), p.mainP90(), len(p.main)),
		fmt.Sprintf("failback_p50_ms %.4f ms (n=%d)", p.altP50(), len(p.alt)),
		fmt.Sprintf("drill_s %.4f s per pass over all %d sets (lowest window's median; n=%d)", p.batchS(), len(e.order), len(p.batch)),
		fmt.Sprintf("PM achieved: recovered_flow_pct %.4f, min_prog_mean %.4f, total_prog_mean %.4f (fresh PM %.4f)",
			p.q.recoveredPct, p.q.minProgMean, p.q.totalProgMean, p.q.refTotalProgMean))
	if tr == nil {
		return
	}

	spans := tr.snapshot()
	names := byName(spans)
	self := selfTimes(spans)
	byID := spanIndex(spans)
	push := childBusy(spans, "sdnsim.push")
	var medicSelf []time.Duration
	var recBusy, pushInRec time.Duration
	for _, id := range recRoots {
		medicSelf = append(medicSelf, self[id])
		recBusy += byID[id].dur()
		pushInRec += push[id]
	}
	retries1, reconciles1 := e.medicCounters()
	n := float64(max(len(recRoots), 1))
	p.layers = map[string]float64{
		"sdnsim.flow_mods_per_recovery": float64(mods) / n,
		"sdnsim.push_rounds":            float64(pushRounds) / n,
		"sdnsim.push_retries":           retries1 - retries0,
		"medic.self_p50_ms":             median(ms(medicSelf)),
		"medic.stale_plans":             float64(stale),
		"medic.reconciles_per_cycle":    (reconciles1 - reconciles0) / float64(max(cycles, 1)),
		"store.fsyncs_per_recovery":     float64(e.wal.Fsyncs()-fsync0) / n,
		"store.checkpoints":             float64(e.wal.Checkpoints() - ckpt0),
		"scenario.offline_flows_mean":   e.meanOffline(),
	}
	if recBusy > 0 {
		p.layers["share.push_of_recovery_pct"] = 100 * float64(pushInRec) / float64(recBusy)
	}
	addLayer(p.layers, names, "sdnsim.push", "sdnsim.push_p50_ms", "sdnsim.push_busy_s")
	addLayer(p.layers, names, "sdnsim.restore", "sdnsim.restore_p50_ms", "sdnsim.restore_busy_s")
	addLayer(p.layers, names, "core.pm", "core.pm_p50_ms", "core.pm_busy_s")
	p.table = append(p.table, fmt.Sprintf("claim: push is %.1f%% of recovery time (push p50 %.4f ms of recovery p50 %.4f ms): %s",
		p.layers["share.push_of_recovery_pct"], p.layers["sdnsim.push_p50_ms"], p.mainP50(),
		holds(p.layers["share.push_of_recovery_pct"] > 50)))
}

// meanOffline is the mean offline-flow count of the distinct failure sets.
func (e *failoverEnv) meanOffline() float64 {
	var v []float64
	for _, r := range e.refs {
		v = append(v, float64(r.offline))
	}
	return mean(v)
}

// checkRecovery is the gate after a failure op.
func (e *failoverEnv) checkRecovery(p *phase, set []int, st medic.Status) bool {
	ok := true
	bad := func(format string, args ...any) {
		if ok {
			p.fail("recovery %v: "+format, append([]any{set}, args...)...)
		}
		ok = false
	}
	if !slices.Equal(st.Failed, set) {
		bad("Status.Failed = %v", st.Failed)
	}
	for sw, j := range st.NetworkMapping {
		if slices.Contains(set, j) {
			bad("switch %d still mapped to failed controller %d", sw, j)
		}
	}
	if len(st.Unreachable) != 0 {
		bad("healthy agents demoted: %v", st.Unreachable)
	}
	ref := e.refs[fmt.Sprint(set)]
	if st.RecoveredFlows != ref.recovered || st.MinProg != ref.minProg || st.TotalProg != ref.totalProg ||
		st.OfflineFlows != ref.offline {
		bad("achieved recovered=%d r=%d total=%d offline=%d, fresh PM gives %d/%d/%d/%d",
			st.RecoveredFlows, st.MinProg, st.TotalProg, st.OfflineFlows,
			ref.recovered, ref.minProg, ref.totalProg, ref.offline)
	}
	return ok
}

// checkFailback is the gate after a return op: the mapping is ideal again.
func (e *failoverEnv) checkFailback(p *phase, set []int, st medic.Status) {
	if len(st.Failed) != 0 {
		p.fail("failback %v: Status.Failed = %v", set, st.Failed)
		return
	}
	if !slices.Equal(st.NetworkMapping, e.ideal) {
		p.fail("failback %v: mapping %v, want ideal %v", set, st.NetworkMapping, e.ideal)
	}
}
