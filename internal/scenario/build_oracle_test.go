package scenario

import (
	"fmt"
	"slices"
	"sort"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/topo"
)

// oracleScratch is buildOracle's per-call working memory.
type oracleScratch struct {
	isFailed    []bool
	switchIndex []int
	rawFlows    []int32
	pairs       []core.Pair
	start       []int
}

// buildOracle is the reference case compiler that the delta path
// (Context.Build, BuildDeltaCase) is held to: it compiles every case from
// scratch — one CSR gather over all offline switches, one sort+dedupe, one
// scan of every candidate flow's stops — with no state carried between
// calls, so its output cannot depend on what was compiled before. Tests
// compare against it field for field, errors included.
//
// Candidate flows are enumerated through the workload's switch→flows CSR
// index — cost proportional to the traffic actually crossing the failed
// domains — instead of scanning all L flows per case.
func (ctx *Context) buildOracle(failed []int) (*Instance, error) {
	dep, flows := ctx.Dep, ctx.Flows
	m := len(dep.Controllers)
	if len(failed) == 0 {
		return nil, fmt.Errorf("%w: no failed controllers", ErrBadCase)
	}
	if len(failed) >= m {
		return nil, fmt.Errorf("%w: all %d controllers failed", ErrBadCase, m)
	}
	sc := new(oracleScratch)
	isFailed := growBools(&sc.isFailed, m)
	for _, j := range failed {
		if j < 0 || j >= m {
			return nil, fmt.Errorf("%w: controller index %d out of range [0,%d)", ErrBadCase, j, m)
		}
		if isFailed[j] {
			return nil, fmt.Errorf("%w: controller %d listed twice", ErrBadCase, j)
		}
		isFailed[j] = true
	}

	inst := &Instance{Dep: dep, Flows: flows}
	inst.Failed = make([]int, 0, len(failed))
	inst.Failed = append(inst.Failed, failed...)
	sort.Ints(inst.Failed)
	inst.Active = make([]int, 0, m-len(failed))
	for j := 0; j < m; j++ {
		if !isFailed[j] {
			inst.Active = append(inst.Active, j)
		}
	}

	// Offline switches: the failed controllers' domains, ascending.
	numOffline := 0
	for _, j := range inst.Failed {
		numOffline += len(dep.Controllers[j].Domain)
	}
	inst.Switches = make([]topo.NodeID, 0, numOffline)
	for _, j := range inst.Failed {
		inst.Switches = append(inst.Switches, dep.Controllers[j].Domain...)
	}
	sort.Slice(inst.Switches, func(a, b int) bool { return inst.Switches[a] < inst.Switches[b] })
	// switchIndex[sw] is the problem index of offline switch sw, or -1.
	switchIndex := growInts(&sc.switchIndex, dep.Graph.NumNodes())
	for i := range switchIndex {
		switchIndex[i] = -1
	}
	for i, sw := range inst.Switches {
		switchIndex[sw] = i
	}

	p := &core.Problem{
		NumSwitches:    len(inst.Switches),
		NumControllers: len(inst.Active),
	}
	if err := ctx.fillProblemMatrices(inst, p); err != nil {
		return nil, err
	}

	// Candidate offline flows: exactly the flows whose path crosses an
	// offline switch (a flow is offline iff some stop — src included — or
	// its destination is offline, and all of those are path nodes). The CSR
	// gather returns them with duplicates; one sort+dedupe restores the
	// ascending flow order the all-flows scan used to iterate in.
	raw := flows.AppendFlowsThrough(sc.rawFlows[:0], inst.Switches)
	sc.rawFlows = raw
	slices.Sort(raw)

	// Eligible pairs. Pairs are gathered flow-major (flows ascending, and
	// within a flow in path order) and then bucketed by switch below, which
	// yields the (Switch, Flow)-sorted order Finalize expects without a
	// comparison sort.
	pairs := sc.pairs[:0]
	inst.FlowIDs = make([]flow.ID, 0, len(raw))
	for x, lf := range raw {
		if x > 0 && lf == raw[x-1] {
			continue
		}
		f := &flows.Flows[lf]
		pairStart := len(pairs)
		for _, stop := range f.Stops {
			i := switchIndex[stop.Node]
			if i < 0 {
				continue
			}
			if stop.Programmable() {
				pairs = append(pairs, core.Pair{Switch: i, PBar: stop.PBar()})
			}
		}
		if len(pairs) == pairStart {
			inst.Unrecoverable = append(inst.Unrecoverable, f.ID)
			continue
		}
		flowIdx := len(inst.FlowIDs)
		inst.FlowIDs = append(inst.FlowIDs, f.ID)
		for k := pairStart; k < len(pairs); k++ {
			pairs[k].Flow = flowIdx
		}
	}
	sc.pairs = pairs
	p.Pairs = sortPairsBySwitch(pairs, p.NumSwitches, &sc.start)
	p.NumFlows = len(inst.FlowIDs)
	if p.NumFlows == 0 {
		return nil, fmt.Errorf("%w: failure case has no recoverable offline flows", ErrBadCase)
	}
	if err := p.Finalize(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	p.BudgetMs = p.IdealDelayBudget()
	inst.Problem = p

	ctx.fillMiddleDelay(inst)
	return inst, nil
}
