package medic

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/monitor"
	"pmedic/internal/scenario"
	"pmedic/internal/sdnsim"
	"pmedic/internal/topo"
)

func testFixture(t *testing.T) (*topo.Deployment, *flow.Set) {
	t.Helper()
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dep, flows
}

// recorder stubs the wire drivers: pushes succeed instantly (demoting a
// configured switch set) and restores succeed instantly, while recording
// every call for assertions.
type recorder struct {
	mu       sync.Mutex
	demote   map[topo.NodeID]bool
	pushes   []*scenario.Instance
	sols     []*core.Solution
	gens     []uint64
	restores [][]topo.NodeID
}

func (r *recorder) push(_ map[topo.NodeID]string, _ *flow.Set, inst *scenario.Instance,
	sol *core.Solution, opts sdnsim.PushOptions) (*sdnsim.RecoveryReport, error) {
	r.mu.Lock()
	r.pushes = append(r.pushes, inst)
	r.sols = append(r.sols, sol)
	r.gens = append(r.gens, opts.GenerationID)
	demote := r.demote
	r.mu.Unlock()

	final := &core.Solution{
		Algorithm:        sol.Algorithm,
		SwitchController: append([]int(nil), sol.SwitchController...),
		Active:           append([]bool(nil), sol.Active...),
		SwitchLevel:      sol.SwitchLevel,
		MiddleLayer:      sol.MiddleLayer,
	}
	rep := &sdnsim.RecoveryReport{Rounds: 1}
	for i, swID := range inst.Switches {
		if demote[swID] {
			final.SwitchController[i] = -1
			for _, k := range inst.Problem.PairsAtSwitch(i) {
				final.Active[k] = false
			}
			rep.Demoted = append(rep.Demoted, swID)
		}
	}
	planned, err := inst.Evaluate(sol)
	if err != nil {
		return nil, err
	}
	achieved, err := inst.Evaluate(final)
	if err != nil {
		return nil, err
	}
	rep.Planned, rep.Achieved, rep.Final = planned, achieved, final
	return rep, nil
}

func (r *recorder) restore(_ map[topo.NodeID]string, _ *flow.Set, switches []topo.NodeID,
	_ sdnsim.PushOptions) (*sdnsim.RestoreReport, error) {
	r.mu.Lock()
	r.restores = append(r.restores, append([]topo.NodeID(nil), switches...))
	r.mu.Unlock()
	return &sdnsim.RestoreReport{}, nil
}

func newTestMedic(t *testing.T, rec *recorder) (*Medic, chan monitor.Event) {
	t.Helper()
	dep, flows := testFixture(t)
	m, err := New(Config{
		Dep:      dep,
		Flows:    flows,
		Addrs:    map[topo.NodeID]string{0: "stubbed"},
		Pusher:   rec.push,
		Restorer: rec.restore,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := make(chan monitor.Event, 8)
	m.Start(events)
	t.Cleanup(m.Stop)
	return m, events
}

func waitStatus(t *testing.T, m *Medic, cond func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := m.Status()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("status never satisfied condition; last: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func hasLogKind(st Status, k Kind, substr string) bool {
	for _, e := range st.Events {
		if e.Kind == k && strings.Contains(e.Msg, substr) {
			return true
		}
	}
	return false
}

func TestFailureEventConvergesToPushedPlan(t *testing.T) {
	rec := &recorder{}
	m, events := newTestMedic(t, rec)

	events <- monitor.Event{Seq: 1, Failed: []int{3, 4}, At: time.Now()}
	st := waitStatus(t, m, func(s Status) bool { return s.Converged && !s.Ideal })

	if len(st.Failed) != 2 || st.Failed[0] != 3 || st.Failed[1] != 4 {
		t.Fatalf("Failed = %v, want [3 4]", st.Failed)
	}
	if st.Epoch != 1 {
		t.Fatalf("Epoch = %d, want 1", st.Epoch)
	}
	if st.MinProg < 1 || st.TotalProg == 0 || len(st.Mapping) == 0 || len(st.FlowProg) == 0 {
		t.Fatalf("achieved metrics missing: %+v", st)
	}
	if st.OfflineFlows == 0 || st.RecoveredFlows == 0 {
		t.Fatalf("flow accounting missing: %+v", st)
	}
	if !hasLogKind(st, KindDetect, "") || !hasLogKind(st, KindPush, "") || !hasLogKind(st, KindConverged, "") {
		t.Fatalf("expected detect/push/converged log entries, got %+v", st.Events)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.pushes) != 1 {
		t.Fatalf("pushes = %d, want 1", len(rec.pushes))
	}
	if rec.gens[0] != genStride+1 {
		t.Fatalf("generation = %d, want %d", rec.gens[0], genStride+1)
	}
}

func TestSuccessiveFailureReplansResidually(t *testing.T) {
	dep, _ := testFixture(t)
	victim := dep.Controllers[3].Domain[0]
	rec := &recorder{demote: map[topo.NodeID]bool{victim: true}}
	m, events := newTestMedic(t, rec)

	// First failure: the push demotes the victim switch.
	events <- monitor.Event{Seq: 1, Failed: []int{3}, At: time.Now()}
	st := waitStatus(t, m, func(s Status) bool { return s.Converged && s.Epoch == 1 })
	if len(st.Unreachable) != 1 || st.Unreachable[0] != victim {
		t.Fatalf("Unreachable = %v, want [%d]", st.Unreachable, victim)
	}

	// Successive failure: the new plan must route around the known-dead
	// switch via the residual instance instead of re-mapping it.
	events <- monitor.Event{Seq: 2, Failed: []int{4}, At: time.Now()}
	st = waitStatus(t, m, func(s Status) bool { return s.Converged && s.Epoch == 2 })
	if !hasLogKind(st, KindPlan, "residual") {
		t.Fatalf("no residual re-plan logged: %+v", st.Events)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.pushes) != 2 {
		t.Fatalf("pushes = %d, want 2", len(rec.pushes))
	}
	inst, sol := rec.pushes[1], rec.sols[1]
	for i, swID := range inst.Switches {
		if swID == victim && sol.SwitchController[i] >= 0 {
			t.Fatalf("residual plan still maps unreachable switch %d", victim)
		}
	}
	if rec.gens[1] <= rec.gens[0] {
		t.Fatalf("generation not monotone: %v", rec.gens)
	}
}

func TestRecoveryTriggersFailBack(t *testing.T) {
	dep, _ := testFixture(t)
	rec := &recorder{}
	m, events := newTestMedic(t, rec)

	events <- monitor.Event{Seq: 1, Failed: []int{3, 4}, At: time.Now()}
	waitStatus(t, m, func(s Status) bool { return s.Converged && s.Epoch == 1 })

	// One controller returns: its domain is restored, the rest re-planned.
	events <- monitor.Event{Seq: 2, Recovered: []int{3}, At: time.Now()}
	st := waitStatus(t, m, func(s Status) bool { return s.Converged && s.Epoch == 2 })
	if len(st.Failed) != 1 || st.Failed[0] != 4 {
		t.Fatalf("Failed = %v, want [4]", st.Failed)
	}
	if st.Restores != 1 {
		t.Fatalf("Restores = %d, want 1", st.Restores)
	}

	// The last controller returns: ideal state.
	events <- monitor.Event{Seq: 3, Recovered: []int{4}, At: time.Now()}
	st = waitStatus(t, m, func(s Status) bool { return s.Ideal })
	if !st.Converged || len(st.Failed) != 0 {
		t.Fatalf("not back to ideal: %+v", st)
	}
	if !hasLogKind(st, KindFailback, "") || !hasLogKind(st, KindRestore, "") {
		t.Fatalf("expected restore/failback log entries: %+v", st.Events)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.restores) != 2 {
		t.Fatalf("restores = %d, want 2", len(rec.restores))
	}
	if len(rec.restores[0]) != len(dep.Controllers[3].Domain) {
		t.Fatalf("first restore covered %d switches, want controller 3's domain (%d)",
			len(rec.restores[0]), len(dep.Controllers[3].Domain))
	}
}

func TestUnplannableFailureSetIsLoggedNotFatal(t *testing.T) {
	rec := &recorder{}
	m, events := newTestMedic(t, rec)

	// All six controllers down: nothing can be planned.
	events <- monitor.Event{Seq: 1, Failed: []int{0, 1, 2, 3, 4, 5}, At: time.Now()}
	st := waitStatus(t, m, func(s Status) bool { return hasLogKind(s, KindError, "") })
	if st.Converged {
		t.Fatalf("unplannable failure set reported converged: %+v", st)
	}

	// A controller returning makes the set plannable again.
	events <- monitor.Event{Seq: 2, Recovered: []int{0}, At: time.Now()}
	waitStatus(t, m, func(s Status) bool { return s.Converged && s.Epoch == 2 })
}

func TestPushFailureLeavesUnconverged(t *testing.T) {
	dep, flows := testFixture(t)
	m, err := New(Config{
		Dep:   dep,
		Flows: flows,
		Addrs: map[topo.NodeID]string{0: "stubbed"},
		Pusher: func(map[topo.NodeID]string, *flow.Set, *scenario.Instance,
			*core.Solution, sdnsim.PushOptions) (*sdnsim.RecoveryReport, error) {
			return nil, errors.New("wire is gone")
		},
		Restorer: (&recorder{}).restore,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := make(chan monitor.Event, 1)
	m.Start(events)
	defer m.Stop()
	events <- monitor.Event{Seq: 1, Failed: []int{3}, At: time.Now()}
	st := waitStatus(t, m, func(s Status) bool { return hasLogKind(s, KindError, "wire is gone") })
	if st.Converged {
		t.Fatalf("failed push reported converged: %+v", st)
	}
}

func TestEventLogRingWraps(t *testing.T) {
	l := newEventLog(4)
	for i := 0; i < 10; i++ {
		l.addf(KindDetect, "entry %d", i)
	}
	got := l.snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d entries, want 4", len(got))
	}
	if got[0].Msg != "entry 6" || got[3].Msg != "entry 9" {
		t.Fatalf("wrong window: %v ... %v", got[0].Msg, got[3].Msg)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("non-monotone seqs: %+v", got)
		}
	}
}
