// Package medic is the event-driven recovery orchestrator of the online
// daemon (cmd/pmedicd): it consumes liveness events from internal/monitor
// and keeps the network's path programmability reconciled with the failure
// set the detector reports — the paper's PM algorithm, run continuously
// instead of once.
//
// One serialized reconcile loop owns all decisions. Per event batch it:
//
//   - compiles the current failure set into a scenario.Instance and solves
//     it (core.PM by default);
//   - for successive failures, reuses scenario.Instance.Residual to drop
//     switches already proven unreachable in this episode, so a new failure
//     does not re-spend push attempts on known-dead agents;
//   - pushes the plan through sdnsim.PushRecoveryResilient and adopts the
//     achieved mapping into the simulator's ownership bookkeeping;
//   - on controller return, restores the ideal configuration of the
//     returned domain through sdnsim.RestoreIdeal (fail-back) and re-plans
//     whatever failures remain.
//
// Epochs number the event batches; the generation IDs claimed on the wire
// are derived from the epoch, so a slow push from an earlier epoch can
// never re-take a switch from a newer one (the agents refuse the stale
// claim), and a plan computed for an epoch that queued newer events before
// it was pushed is discarded, never pushed. Every decision lands in a
// bounded structured event log, exposed with the rest of the daemon state
// via the HTTP status handler (status.go).
package medic

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/monitor"
	"pmedic/internal/planstore"
	"pmedic/internal/scenario"
	"pmedic/internal/sdnsim"
	"pmedic/internal/store"
	"pmedic/internal/topo"
)

// genStride spaces the wire generation IDs of successive epochs, leaving
// room for the push driver's stale-claim resynchronization bumps inside an
// epoch while keeping later epochs strictly larger.
const genStride = 1 << 20

// PushFunc delivers a recovery plan; it matches sdnsim.PushRecoveryResilient.
type PushFunc func(addrs map[topo.NodeID]string, flows *flow.Set, inst *scenario.Instance,
	sol *core.Solution, opts sdnsim.PushOptions) (*sdnsim.RecoveryReport, error)

// RestoreFunc delivers a fail-back; it matches sdnsim.RestoreIdeal.
type RestoreFunc func(addrs map[topo.NodeID]string, flows *flow.Set, switches []topo.NodeID,
	opts sdnsim.PushOptions) (*sdnsim.RestoreReport, error)

// Config wires a Medic. Dep, Flows, and Addrs are required.
type Config struct {
	Dep   *topo.Deployment
	Flows *flow.Set
	// Addrs is the switch-agent address registry pushes are delivered to.
	Addrs map[topo.NodeID]string
	// Net, when set, receives ownership bookkeeping (AdoptMapping) after
	// each successful push. Only the concurrency-safe lifecycle surface of
	// Network is used.
	Net *sdnsim.Network
	// Push tunes the wire drivers; GenerationID and Seed are overridden
	// per epoch.
	Push sdnsim.PushOptions
	// Solve replaces the planning algorithm (default core.PM).
	Solve func(*core.Problem) (*core.Solution, error)
	// Plans, when set, is the precompiled plan store consulted before every
	// solve: an exact hit serves the stored plan (byte-identical to a fresh
	// solve), an uncompiled set falls back to the nearest superset plan plus
	// a residual repair, and only a miss pays the full solve. The store's
	// lifecycle (Open/Close) belongs to the caller. A store whose topology
	// hash does not match Dep and Flows is refused at New and the daemon
	// degrades to the solve path.
	Plans *planstore.Store
	// Pusher and Restorer replace the wire drivers (defaults:
	// sdnsim.PushRecoveryResilient, sdnsim.RestoreIdeal); tests stub them.
	Pusher   PushFunc
	Restorer RestoreFunc
	// LogSize bounds the structured event log (default 256 entries).
	LogSize int

	// Store, when set, persists the daemon's durable state — epoch, failure
	// set, adopted mapping, unreachable set, event log — as snapshot+WAL.
	// New replays it, so a restarted daemon resumes mid-episode at an epoch
	// strictly greater than anything it persisted, instead of re-detecting
	// from scratch. The medic appends records; the store's lifecycle (Open/
	// Close) belongs to the caller.
	Store *store.Store
	// CheckpointEvery folds the WAL into a fresh snapshot once this many
	// records accumulate (default 64).
	CheckpointEvery int
	// ReplicaID names this daemon instance in Status (HA deployments).
	ReplicaID string
	// OnFenced fires (once per reconcile, on the loop goroutine) when a
	// push is refused by generation-ID fencing — the signal that a newer
	// leader has taken over and this daemon must step down.
	OnFenced func()
}

// Medic is the reconcile loop. Create with New, feed with Start.
type Medic struct {
	cfg Config
	// ctx caches the failure-independent scenario state (delay vectors,
	// middle-layer placement, domain loads), so every reconcile compiles its
	// failure set without re-walking the topology.
	ctx *scenario.Context
	// plans is cfg.Plans after the topology-hash gate: nil when no store is
	// configured or the store was compiled for a different deployment.
	plans *planstore.Store

	mu sync.Mutex
	// epoch counts applied event batches; 0 = nothing ever detected.
	epoch uint64
	// failed is the controller set currently believed down.
	failed map[int]bool
	// pendingRecovered are controllers whose return has been detected but
	// whose domains have not been restored yet.
	pendingRecovered []int
	// unreachable accumulates switches demoted by pushes in this failure
	// episode; cleared when the failure set empties.
	unreachable map[topo.NodeID]bool
	snap        snapshot
	// role and term are the HA identity Status reports (SetRole).
	role string
	term uint64

	log     *eventLog
	metrics *Metrics
	// persistFailures counts store writes that failed (durability degraded
	// but the daemon stays up).
	persistFailures uint64

	events    <-chan monitor.Event
	startOnce sync.Once
	stopOnce  sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// snapshot is the reconciled state Status reports. Every field is
// JSON-serializable because the same struct is the persisted "outcome"
// payload: what Status shows after a restart is byte-for-byte what the
// dead daemon last reconciled.
type snapshot struct {
	Converged bool   `json:"converged"`
	Ideal     bool   `json:"ideal"`
	Label     string `json:"label,omitempty"`
	Restores  int    `json:"restores"`

	MinProg        int `json:"min_prog"`
	TotalProg      int `json:"total_prog"`
	RecoveredFlows int `json:"recovered_flows"`
	OfflineFlows   int `json:"offline_flows"`
	PushRounds     int `json:"push_rounds,omitempty"`
	FlowModsAcked  int `json:"flow_mods_acked,omitempty"`

	Mapping  []MappingEntry `json:"mapping,omitempty"`
	FlowProg []FlowProg     `json:"flow_prog,omitempty"`

	UpdatedAt time.Time `json:"updated_at"`
}

// New validates the wiring and returns an idle Medic.
func New(cfg Config) (*Medic, error) {
	if cfg.Dep == nil || cfg.Flows == nil {
		return nil, errors.New("medic: Dep and Flows are required")
	}
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("medic: empty switch-agent address registry")
	}
	if cfg.Solve == nil {
		cfg.Solve = core.PM
	}
	if cfg.Pusher == nil {
		cfg.Pusher = sdnsim.PushRecoveryResilient
	}
	if cfg.Restorer == nil {
		cfg.Restorer = sdnsim.RestoreIdeal
	}
	if cfg.LogSize <= 0 {
		cfg.LogSize = 256
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 64
	}
	ctx, err := scenario.NewContext(cfg.Dep, cfg.Flows)
	if err != nil {
		return nil, fmt.Errorf("medic: %w", err)
	}
	m := &Medic{
		cfg:         cfg,
		ctx:         ctx,
		failed:      make(map[int]bool),
		unreachable: make(map[topo.NodeID]bool),
		snap:        snapshot{Converged: true, Ideal: true, UpdatedAt: time.Now()},
		log:         newEventLog(cfg.LogSize),
		metrics:     newMetrics(),
		done:        make(chan struct{}),
	}
	if cfg.Plans != nil {
		// A store compiled for a different deployment would serve plans whose
		// switch indices, delays, and capacities are all stale: refuse it and
		// keep recovering on the solve path instead of pushing garbage.
		if got, want := cfg.Plans.Header().TopoHash, planstore.TopoHash(cfg.Dep, cfg.Flows); got != want {
			m.log.addf(KindError, "plan store %s disabled: topology hash %#x does not match deployment %#x",
				cfg.Plans.Path(), got, want)
		} else {
			m.plans = cfg.Plans
			m.metrics.wirePlans()
			m.log.addf(KindPlan, "plan store %s: %d precompiled plans up to depth %d (%s)",
				cfg.Plans.Path(), cfg.Plans.Len(), cfg.Plans.Header().Depth, cfg.Plans.Header().Algorithm)
		}
	}
	if cfg.Store != nil {
		m.metrics.wireStore(cfg.Store)
		ds, err := replayDurable(cfg.Store.Snapshot(), cfg.Store.Records())
		if err != nil {
			return nil, fmt.Errorf("medic: restore: %w", err)
		}
		if ds != nil {
			m.restore(ds)
		}
		// Wire the log to the WAL only after restore, so replayed entries
		// are not re-appended.
		m.log.onAppend = m.persistLogEntry
		if ds != nil {
			m.log.addf(KindResume, "resumed at epoch %d from snapshot+WAL: failed=%v, %d unreachable, log seq %d",
				m.epoch, ds.Failed, len(ds.Unreachable), ds.LogSeq)
		}
	}
	return m, nil
}

// restore loads a replayed durable state and bumps the epoch, so the
// resumed daemon's first generation ID is strictly greater than anything
// the dead incarnation could have signed — its in-flight pushes are fenced
// on the wire.
func (m *Medic) restore(ds *durableState) {
	m.epoch = ds.Epoch + 1
	for _, j := range ds.Failed {
		m.failed[j] = true
	}
	m.pendingRecovered = append([]int(nil), ds.PendingRecovered...)
	for _, sw := range ds.Unreachable {
		m.unreachable[sw] = true
	}
	m.snap = ds.Snap
	m.log.restoreRing(ds.LogSeq, ds.LogEntries)
}

// Epoch returns the current epoch.
func (m *Medic) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// FenceGen is the generation a freshly promoted leader stamps onto the
// agents (sdnsim.FenceAgents): the bottom of the current epoch's range.
// Every claim signed by an earlier epoch — the deposed leader's — compares
// below it and is refused.
func (m *Medic) FenceGen() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch * genStride
}

// SetRole records the daemon's HA identity for Status and the leader
// gauge.
func (m *Medic) SetRole(role string, term uint64) {
	m.mu.Lock()
	m.role, m.term = role, term
	m.mu.Unlock()
	m.metrics.setLeader(role == "leader", term)
}

// Metrics exposes the daemon's metrics registry (the /metrics source).
func (m *Medic) Metrics() *Metrics { return m.metrics }

// Start launches the reconcile loop over the detector's event stream. The
// loop exits when the stream closes or Stop is called.
func (m *Medic) Start(events <-chan monitor.Event) {
	m.startOnce.Do(func() {
		m.events = events
		m.wg.Add(1)
		go m.run()
	})
}

// Stop halts the loop and waits for an in-flight reconcile to finish.
func (m *Medic) Stop() {
	m.stopOnce.Do(func() {
		close(m.done)
		m.wg.Wait()
	})
}

func (m *Medic) run() {
	defer m.wg.Done()
	for {
		select {
		case <-m.done:
			return
		case ev, ok := <-m.events:
			if !ok {
				return
			}
			m.apply(ev)
			// Batch whatever the detector queued behind it: correlated
			// events collapse into one reconcile.
			for drained := false; !drained; {
				select {
				case ev2, ok2 := <-m.events:
					if !ok2 {
						drained = true
						break
					}
					m.apply(ev2)
				default:
					drained = true
				}
			}
			m.reconcile()
		}
	}
}

// apply folds one detector event into the failure set and advances the
// epoch. The event is journaled and logged before the new epoch becomes
// visible, and the epoch, the failure set and the unconverged mark change
// under one lock, so Status never pairs the new epoch with an empty event
// log or with the previous failure set's plan. Only the loop goroutine
// advances the epoch, so reading it ahead of the lock is safe.
func (m *Medic) apply(ev monitor.Event) {
	epoch := m.Epoch() + 1
	m.persistDetect(epoch, ev)
	m.log.addf(KindDetect, "epoch %d: %s", epoch, ev)
	m.mu.Lock()
	m.epoch = epoch
	for _, j := range ev.Failed {
		m.failed[j] = true
	}
	for _, j := range ev.Recovered {
		if m.failed[j] {
			delete(m.failed, j)
			m.pendingRecovered = append(m.pendingRecovered, j)
		}
	}
	m.snap.Converged = false
	m.mu.Unlock()
	m.metrics.addEpoch()
}

// stalePlan reports whether newer detector events are already queued — the
// signal that a plan computed for the current epoch must be discarded
// instead of pushed.
func (m *Medic) stalePlan() bool { return len(m.events) > 0 }

// pushOpts derives the wire options for one epoch: an epoch-ranked
// generation ID (stale pushes are refused on the wire), the matching
// fencing limit (a push signed by this epoch may resynchronize inside the
// epoch's generation stride but never claim into a later epoch's range),
// and a decorrelated retry-jitter seed.
func (m *Medic) pushOpts(epoch uint64) sdnsim.PushOptions {
	opts := m.cfg.Push
	opts.GenerationID = epoch*genStride + 1
	opts.GenerationLimit = (epoch+1)*genStride - 1
	opts.Seed = m.cfg.Push.Seed ^ int64(epoch)
	return opts
}

// reconcile drives the failure set to a pushed, adopted plan. It runs only
// on the loop goroutine; the epoch cannot advance underneath it, but newer
// events can queue, which is checked between planning and pushing.
func (m *Medic) reconcile() {
	start := time.Now()
	defer func() {
		m.metrics.observeReconcile(time.Since(start))
		m.persistOutcome()
		m.maybeCheckpoint()
	}()

	m.mu.Lock()
	epoch := m.epoch
	failed := make([]int, 0, len(m.failed))
	for j := range m.failed {
		failed = append(failed, j)
	}
	sort.Ints(failed)
	recovered := m.pendingRecovered
	m.pendingRecovered = nil
	m.mu.Unlock()

	// Fail-back first: returned controllers re-took their domains; push the
	// ideal configuration back so demoted flows are SDN-routed again.
	for _, j := range recovered {
		m.restoreDomain(epoch, j)
	}

	// A converged outcome is logged before it is published, so a Status
	// that shows it also shows its log entry.
	if len(failed) == 0 {
		if len(recovered) > 0 {
			m.log.addf(KindFailback, "epoch %d: all controllers back, ideal mapping restored", epoch)
		}
		m.mu.Lock()
		m.unreachable = make(map[topo.NodeID]bool)
		m.snap = snapshot{Converged: true, Ideal: true, Restores: m.snap.Restores, UpdatedAt: time.Now()}
		m.mu.Unlock()
		return
	}

	inst, err := m.ctx.Build(failed)
	if err != nil {
		m.setUnconverged(fmt.Sprintf("failure set %v is unplannable", failed))
		m.log.addf(KindError, "epoch %d: compile %v: %v", epoch, failed, err)
		return
	}

	sol, err := m.plan(epoch, inst)
	if err != nil {
		m.setUnconverged(fmt.Sprintf("planning for %s failed", inst.Label()))
		m.log.addf(KindError, "epoch %d: plan %s: %v", epoch, inst.Label(), err)
		return
	}

	if m.stalePlan() {
		m.log.addf(KindStale, "epoch %d: plan for %s discarded, newer events queued", epoch, inst.Label())
		return
	}

	rep, err := m.cfg.Pusher(m.cfg.Addrs, m.cfg.Flows, inst, sol, m.pushOpts(epoch))
	if err != nil {
		m.setUnconverged(fmt.Sprintf("push for %s failed", inst.Label()))
		m.log.addf(KindError, "epoch %d: push %s: %v", epoch, inst.Label(), err)
		return
	}
	m.metrics.addPushRetries(pushRetries(rep))

	// A fenced push means a newer epoch — a newer leader — owns the
	// switches now. This daemon's view is stale: report, step down, and
	// leave the network to the claimant instead of fighting it.
	if n := fencedOutcomes(rep); n > 0 {
		m.metrics.addFenced(uint64(n))
		m.setUnconverged(fmt.Sprintf("push for %s fenced by a newer generation", inst.Label()))
		m.log.addf(KindFenced, "epoch %d: push %s refused by generation-ID fencing on %d switch(es); a newer leader owns the network",
			epoch, inst.Label(), n)
		if m.cfg.OnFenced != nil {
			m.cfg.OnFenced()
		}
		return
	}

	m.log.addf(KindPush, "epoch %d: pushed %s: %d flow-mods acked in %d round(s), %d demoted",
		epoch, inst.Label(), rep.FlowModsAcked, rep.Rounds, len(rep.Demoted))

	m.mu.Lock()
	for _, sw := range rep.Demoted {
		m.unreachable[sw] = true
	}
	m.mu.Unlock()

	if m.cfg.Net != nil {
		if err := m.cfg.Net.AdoptMapping(inst, rep.Final); err != nil {
			m.setUnconverged(fmt.Sprintf("adopting the %s mapping failed", inst.Label()))
			m.log.addf(KindError, "epoch %d: adopt %s: %v", epoch, inst.Label(), err)
			return
		}
	}

	m.log.addf(KindConverged, "epoch %d: converged on %s: r=%d total=%d recovered=%d/%d",
		epoch, inst.Label(), rep.Achieved.MinProg, rep.Achieved.TotalProg,
		rep.Achieved.RecoveredFlows, inst.OfflineFlowCount())
	m.mu.Lock()
	restores := m.snap.Restores
	m.snap = achievedSnapshot(inst, rep, restores)
	m.mu.Unlock()
}

// achievedSnapshot flattens a pushed plan into the serializable reconciled
// state: the mapping table in instance switch order, per-flow achieved
// programmability sorted by flow ID, and the plan metrics.
func achievedSnapshot(inst *scenario.Instance, rep *sdnsim.RecoveryReport, restores int) snapshot {
	s := snapshot{
		Converged:      true,
		Label:          inst.Label(),
		Restores:       restores,
		MinProg:        rep.Achieved.MinProg,
		TotalProg:      rep.Achieved.TotalProg,
		RecoveredFlows: rep.Achieved.RecoveredFlows,
		OfflineFlows:   inst.OfflineFlowCount(),
		PushRounds:     rep.Rounds,
		FlowModsAcked:  rep.FlowModsAcked,
		UpdatedAt:      time.Now(),
	}
	for i, jj := range rep.Final.SwitchController {
		e := MappingEntry{Switch: inst.Switches[i], Controller: -1}
		if jj >= 0 {
			e.Controller = inst.Active[jj]
		}
		s.Mapping = append(s.Mapping, e)
	}
	for l, prog := range rep.Achieved.FlowProg {
		s.FlowProg = append(s.FlowProg, FlowProg{Flow: inst.FlowIDs[l], Prog: prog})
	}
	for _, lid := range inst.Unrecoverable {
		s.FlowProg = append(s.FlowProg, FlowProg{Flow: lid, Prog: 0})
	}
	sort.Slice(s.FlowProg, func(a, b int) bool { return s.FlowProg[a].Flow < s.FlowProg[b].Flow })
	return s
}

// pushRetries totals the connection attempts beyond each switch's first.
func pushRetries(rep *sdnsim.RecoveryReport) uint64 {
	var n uint64
	for i := range rep.Outcomes {
		if a := rep.Outcomes[i].Attempts; a > 1 {
			n += uint64(a - 1)
		}
	}
	return n
}

// fencedOutcomes counts switches whose push was refused by generation-ID
// fencing.
func fencedOutcomes(rep *sdnsim.RecoveryReport) int {
	n := 0
	for i := range rep.Outcomes {
		if rep.Outcomes[i].Err != nil && errors.Is(rep.Outcomes[i].Err, sdnsim.ErrFenced) {
			n++
		}
	}
	return n
}

// plan solves the instance, incrementally when possible: switches already
// proven unreachable in this episode are dropped through Residual before
// solving, and the residual solution is translated back into the
// instance's pair index space.
func (m *Medic) plan(epoch uint64, inst *scenario.Instance) (*core.Solution, error) {
	// The common case — nothing demoted — must not allocate: plan runs per
	// failure event and the map is only needed when a push already failed.
	var demoted map[topo.NodeID]bool
	m.mu.Lock()
	for _, sw := range inst.Switches {
		if m.unreachable[sw] {
			if demoted == nil {
				demoted = make(map[topo.NodeID]bool, len(inst.Switches))
			}
			demoted[sw] = true
		}
	}
	m.mu.Unlock()

	if len(demoted) == 0 {
		// Failure-time fast path: serve the plan from the precompiled store
		// when one is wired. A store error (corrupt record, unplannable
		// superset) degrades to the solve path — the daemon keeps recovering
		// on a broken store, it just recovers slower.
		if m.plans != nil {
			sol, outcome, err := m.plans.Consult(m.ctx, inst, m.cfg.Solve)
			switch {
			case err != nil:
				m.metrics.addPlanError()
				m.log.addf(KindError, "epoch %d: plan store for %s: %v", epoch, inst.Label(), err)
			case outcome == planstore.OutcomeHit:
				m.metrics.addPlanHit()
				m.log.addf(KindPlan, "epoch %d: plan for %s served from the plan store in %s",
					epoch, inst.Label(), sol.Runtime)
				return sol, nil
			case outcome == planstore.OutcomeFallback:
				m.metrics.addPlanFallback()
				m.log.addf(KindPlan, "epoch %d: plan for %s projected from a precompiled superset plan and repaired in %s",
					epoch, inst.Label(), sol.Runtime)
				return sol, nil
			default:
				m.metrics.addPlanMiss()
			}
		}
		return m.cfg.Solve(inst.Problem)
	}
	rp, pairMap, err := inst.Residual(demoted)
	if err != nil {
		// The residual is an optimization; fall back to the full solve.
		m.log.addf(KindError, "epoch %d: residual for %s: %v", epoch, inst.Label(), err)
		return m.cfg.Solve(inst.Problem)
	}
	m.log.addf(KindPlan, "epoch %d: residual re-plan for %s excludes %d unreachable switch(es)",
		epoch, inst.Label(), len(demoted))
	rsol, err := m.cfg.Solve(rp)
	if err != nil {
		return nil, err
	}
	sol := core.NewSolution(rsol.Algorithm+"+residual", inst.Problem)
	copy(sol.SwitchController, rsol.SwitchController)
	for k, on := range rsol.Active {
		if on {
			sol.Active[pairMap[k]] = true
		}
	}
	return sol, nil
}

// restoreDomain pushes the ideal configuration back to one returned
// controller's domain and drops its switches from the unreachable set (a
// returned domain deserves fresh attempts).
func (m *Medic) restoreDomain(epoch uint64, j int) {
	if j < 0 || j >= len(m.cfg.Dep.Controllers) {
		m.log.addf(KindError, "epoch %d: recovery of unknown controller %d", epoch, j)
		return
	}
	domain := m.cfg.Dep.Controllers[j].Domain
	rep, err := m.cfg.Restorer(m.cfg.Addrs, m.cfg.Flows, domain, m.pushOpts(epoch))
	if err != nil {
		m.log.addf(KindError, "epoch %d: fail-back for controller %d: %v", epoch, j, err)
		return
	}
	m.mu.Lock()
	for _, sw := range domain {
		delete(m.unreachable, sw)
	}
	for _, sw := range rep.Failed {
		m.unreachable[sw] = true
	}
	m.snap.Restores++
	m.mu.Unlock()
	m.metrics.addRestore()
	m.log.addf(KindRestore, "epoch %d: controller %d returned: %d flow-mods restored to its domain, %d switch(es) unreachable",
		epoch, j, rep.FlowModsAcked, len(rep.Failed))
}

// setUnconverged marks the current failure set as lacking a pushed plan.
func (m *Medic) setUnconverged(why string) {
	m.mu.Lock()
	m.snap.Converged = false
	m.snap.Ideal = false
	m.snap.Label = why
	m.snap.UpdatedAt = time.Now()
	m.mu.Unlock()
}
