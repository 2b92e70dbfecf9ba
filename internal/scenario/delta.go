package scenario

import (
	"fmt"
	"slices"
	"sort"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/topo"
)

// Delta case compilation: compiling a failure case from scratch means a
// switch→flows CSR gather over every offline switch, a sort and dedupe, and
// a rescan of every candidate flow's stops. Consecutive cases in a sweep,
// however, share almost their whole failure set: in revolving-door order
// (internal/eval's sweep engine) adjacent cases differ by one swapped
// controller, and a cascade only ever grows its set. BuildDeltaCase exploits
// that by keeping, per compilation chain, a DeltaState with the current
// case's candidate flows and their offline programmable stops ("spans"),
// maintained under controller add/remove diffs:
//
//   - count[f] is the number of offline switches on flow f's path. Domains
//     are disjoint, so failing/restoring a controller adds/subtracts its
//     domain's incidences exactly once and candidacy is simply count[f] > 0.
//   - Flows incident on a changed domain ("touched", detected with an
//     epoch-stamp array — the incidence gathers are never sorted) rescan
//     their stops; every other candidate's span is copied verbatim — spans
//     store switch IDs, not problem indices, precisely because the
//     offline-switch numbering changes every case. The only sort in a delta
//     step is over the flows *entering* candidacy, a small subset of the
//     diff.
//
// The assembled Instance is byte-identical to a scratch compile's (the
// property test in delta_test.go holds DeepEqual against the scratch oracle
// in build_oracle_test.go over randomized swap chains); only the work to get
// there shrinks from O(case) to O(diff) + O(assembly). Context.Build is this
// same path on a pooled DeltaState, so there is one case compiler.

// DeltaState carries the incremental bookkeeping of one chain of
// delta-compiled failure cases. The zero value is ready to use; the first
// BuildDeltaCase call seeds it with a full gather. A DeltaState is owned by
// one goroutine at a time — it is scratch, not shared state — and it may be
// reused across Contexts (the state resets itself when the Context changes).
type DeltaState struct {
	ctx *Context

	// Current failure set, ascending, plus its membership marks.
	failed   []int
	isFailed []bool
	nextMark []bool

	// count[f] = offline switches on flow f's path; nonzero exactly at cand.
	count []int32
	// mark[f] == epoch iff flow f is incident on a domain changed by the
	// current diff and must rescan its stops. epoch only ever grows, so
	// stale stamps from earlier cases (or earlier Contexts) never collide.
	mark  []uint64
	epoch uint64
	// cand lists candidate flows ascending; spanOff/spanNode/spanPBar is the
	// CSR of their offline programmable stops in path order (len(spanOff) ==
	// len(cand)+1). An empty span marks an unrecoverable offline flow.
	cand     []int32
	spanOff  []int32
	spanNode []int32
	spanPBar []int32

	// Double buffers and per-call scratch.
	cand2, spanOff2, spanNode2, spanPBar2 []int32
	remIdx, addIdx                        []int
	inc                                   []int32
	entrants                              []int32
	switchIndex                           []int
	pairs                                 []core.Pair
	start                                 []int
}

// clearCase drops the current case's bookkeeping (zeroing count only where it
// is nonzero) while keeping the allocated arenas.
func (st *DeltaState) clearCase() {
	for _, f := range st.cand {
		st.count[f] = 0
	}
	st.cand = st.cand[:0]
	st.spanOff = st.spanOff[:0]
	st.spanNode = st.spanNode[:0]
	st.spanPBar = st.spanPBar[:0]
	for _, j := range st.failed {
		st.isFailed[j] = false
	}
	st.failed = st.failed[:0]
}

// BuildDelta compiles the failure case obtained from prev's failure set by
// restoring controller `removed` and failing controller `added`, reusing the
// chain state in st. Either side may be -1: removed == -1 grows the set
// (cascades), added == -1 shrinks it (fail-backs). prev only defines the
// target set — st need not currently hold prev's case; BuildDeltaCase diffs
// from whatever st holds. The result is byte-identical to
// Context.Build(prev.Failed − removed + added).
func (ctx *Context) BuildDelta(prev *Instance, removed, added int, st *DeltaState) (*Instance, error) {
	if prev == nil {
		return nil, fmt.Errorf("%w: delta from nil instance", ErrBadCase)
	}
	next := make([]int, 0, len(prev.Failed)+1)
	found := removed == -1
	for _, j := range prev.Failed {
		if j == removed {
			found = true
			continue
		}
		next = append(next, j)
	}
	if !found {
		return nil, fmt.Errorf("%w: controller %d not failed in previous case", ErrBadCase, removed)
	}
	if added >= 0 {
		next = append(next, added)
	}
	return ctx.BuildDeltaCase(next, st)
}

// BuildDeltaCase compiles the failure of the given controllers (indices into
// Dep.Controllers) into an Instance incrementally against the chain state in
// st: only the difference between st's current failure set and this one is
// re-gathered and re-scanned. An unseeded (or Context-switched) st
// degenerates to a full gather, and a diff that would touch more domains
// than the case itself resets the state first, so a chain never costs more
// than one full gather per case plus the assembly floor. A rejected case
// leaves st usable for the next one.
func (ctx *Context) BuildDeltaCase(failed []int, st *DeltaState) (*Instance, error) {
	dep, flows := ctx.Dep, ctx.Flows
	m := len(dep.Controllers)
	if len(failed) == 0 {
		return nil, fmt.Errorf("%w: no failed controllers", ErrBadCase)
	}
	if len(failed) >= m {
		return nil, fmt.Errorf("%w: all %d controllers failed", ErrBadCase, m)
	}
	if st.ctx != ctx {
		if st.ctx != nil {
			st.clearCase()
		}
		st.ctx = ctx
		growBools(&st.isFailed, m)
		if cap(st.count) < flows.Len() {
			st.count = make([]int32, flows.Len())
			st.mark = make([]uint64, flows.Len())
		}
		st.count = st.count[:flows.Len()]
		st.mark = st.mark[:flows.Len()]
	}
	// Validate the raw list; the checks and their order fix the error text.
	nextMark := growBools(&st.nextMark, m)
	for _, j := range failed {
		if j < 0 || j >= m {
			return nil, fmt.Errorf("%w: controller index %d out of range [0,%d)", ErrBadCase, j, m)
		}
		if nextMark[j] {
			return nil, fmt.Errorf("%w: controller %d listed twice", ErrBadCase, j)
		}
		nextMark[j] = true
	}

	// Diff against the chain's current set.
	removed := st.remIdx[:0]
	for _, j := range st.failed {
		if !nextMark[j] {
			removed = append(removed, j)
		}
	}
	added := st.addIdx[:0]
	for _, j := range failed {
		if !st.isFailed[j] {
			added = append(added, j)
		}
	}
	if len(removed)+len(added) > len(failed) && len(st.failed) > 0 {
		// The diff spans more domains than the case itself — scratch-gather
		// instead (e.g. depth-1 chains, where consecutive cases share
		// nothing and delta bookkeeping would only add work).
		st.clearCase()
		removed = removed[:0]
		added = append(added[:0], failed...)
	}
	st.remIdx, st.addIdx = removed, added

	// Update per-flow incidence counts straight off the unsorted CSR
	// gathers (duplicates are wanted: counts are per-incidence), stamping
	// every touched flow with this diff's epoch. Nothing here is sorted —
	// only the flows *entering* candidacy need ordering, and they are a
	// small subset of the diff.
	st.epoch++
	epoch := st.epoch
	count, mark := st.count, st.mark
	inc := st.inc[:0]
	for _, j := range removed {
		inc = flows.AppendFlowsThrough(inc, dep.Controllers[j].Domain)
	}
	for _, f := range inc {
		count[f]--
		mark[f] = epoch
	}
	entrants := st.entrants[:0]
	inc = inc[:0]
	for _, j := range added {
		inc = flows.AppendFlowsThrough(inc, dep.Controllers[j].Domain)
	}
	for _, f := range inc {
		if count[f] == 0 && mark[f] != epoch {
			entrants = append(entrants, f)
		}
		count[f]++
		mark[f] = epoch
	}
	st.inc = inc
	slices.Sort(entrants)
	st.entrants = entrants

	// Commit the new failure set.
	for _, j := range removed {
		st.isFailed[j] = false
	}
	for _, j := range added {
		st.isFailed[j] = true
	}
	st.failed = st.failed[:0]
	for j := 0; j < m; j++ {
		if st.isFailed[j] {
			st.failed = append(st.failed, j)
		}
	}

	// Offline switches, ascending, and their problem indexing.
	numOffline := 0
	for _, j := range st.failed {
		numOffline += len(dep.Controllers[j].Domain)
	}
	switches := make([]topo.NodeID, 0, numOffline)
	for _, j := range st.failed {
		switches = append(switches, dep.Controllers[j].Domain...)
	}
	sort.Slice(switches, func(a, b int) bool { return switches[a] < switches[b] })
	switchIndex := growInts(&st.switchIndex, dep.Graph.NumNodes())
	for i := range switchIndex {
		switchIndex[i] = -1
	}
	for i, sw := range switches {
		switchIndex[sw] = i
	}

	// Rebuild the candidate CSR: merge the previous candidates with the
	// sorted entrants. Stamped candidates rescan their stops against the
	// new offline set (dropping out if their count hit zero), unstamped
	// candidates copy their spans verbatim, entrants rescan. Entrants are
	// never already candidates (their count was zero), so the merge output
	// stays ascending and duplicate-free.
	newCand := st.cand2[:0]
	newOff := append(st.spanOff2[:0], 0)
	newNode := st.spanNode2[:0]
	newPBar := st.spanPBar2[:0]
	emit := func(f int32) {
		if count[f] <= 0 {
			return
		}
		for _, stop := range flows.Flows[f].Stops {
			if switchIndex[stop.Node] < 0 {
				continue
			}
			if stop.Programmable() {
				newNode = append(newNode, int32(stop.Node))
				newPBar = append(newPBar, int32(stop.PathCount))
			}
		}
		newCand = append(newCand, f)
		newOff = append(newOff, int32(len(newNode)))
	}
	ei := 0
	if len(st.spanOff) == 0 {
		st.spanOff = append(st.spanOff, 0)
	}
	for ci, f := range st.cand {
		for ei < len(entrants) && entrants[ei] < f {
			emit(entrants[ei])
			ei++
		}
		if mark[f] == epoch {
			emit(f)
			continue
		}
		lo, hi := st.spanOff[ci], st.spanOff[ci+1]
		newCand = append(newCand, f)
		newNode = append(newNode, st.spanNode[lo:hi]...)
		newPBar = append(newPBar, st.spanPBar[lo:hi]...)
		newOff = append(newOff, int32(len(newNode)))
	}
	for ; ei < len(entrants); ei++ {
		emit(entrants[ei])
	}
	st.cand, st.cand2 = newCand, st.cand[:0]
	st.spanOff, st.spanOff2 = newOff, st.spanOff[:0]
	st.spanNode, st.spanNode2 = newNode, st.spanNode[:0]
	st.spanPBar, st.spanPBar2 = newPBar, st.spanPBar[:0]

	return ctx.assemble(st, switches, switchIndex)
}

// assemble materializes the Instance for st's current case from the
// candidate CSR. Everything the Instance retains is freshly allocated; st
// only contributes reusable scratch.
func (ctx *Context) assemble(st *DeltaState, switches []topo.NodeID, switchIndex []int) (*Instance, error) {
	dep, flows := ctx.Dep, ctx.Flows
	m := len(dep.Controllers)

	inst := &Instance{Dep: dep, Flows: flows}
	inst.Failed = append(make([]int, 0, len(st.failed)), st.failed...)
	inst.Active = make([]int, 0, m-len(st.failed))
	for j := 0; j < m; j++ {
		if !st.isFailed[j] {
			inst.Active = append(inst.Active, j)
		}
	}
	inst.Switches = switches

	p := &core.Problem{
		NumSwitches:    len(switches),
		NumControllers: len(inst.Active),
	}
	if err := ctx.fillProblemMatrices(inst, p); err != nil {
		return nil, err
	}

	pairs := st.pairs[:0]
	inst.FlowIDs = make([]flow.ID, 0, len(st.cand))
	for ci, f := range st.cand {
		lo, hi := st.spanOff[ci], st.spanOff[ci+1]
		if lo == hi {
			inst.Unrecoverable = append(inst.Unrecoverable, flows.Flows[f].ID)
			continue
		}
		flowIdx := len(inst.FlowIDs)
		inst.FlowIDs = append(inst.FlowIDs, flows.Flows[f].ID)
		for x := lo; x < hi; x++ {
			pairs = append(pairs, core.Pair{
				Switch: switchIndex[st.spanNode[x]],
				Flow:   flowIdx,
				PBar:   int(st.spanPBar[x]),
			})
		}
	}
	st.pairs = pairs
	p.Pairs = sortPairsBySwitch(pairs, p.NumSwitches, &st.start)
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
