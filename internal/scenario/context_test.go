package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/topo"
)

func contextFixtures(t *testing.T) (*topo.Deployment, *flow.Set) {
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

// TestContextBuildMatchesBuild drives every 2-failure case through one shared
// Context and through the one-shot Build and requires both to equal the
// scratch oracle: the cached precomputation and the pooled delta state must
// not change a single field of the compiled problem.
func TestContextBuildMatchesBuild(t *testing.T) {
	dep, flows := contextFixtures(t)
	ctx, err := NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	for _, failed := range Combinations(len(dep.Controllers), 2) {
		want, err := ctx.buildOracle(failed)
		if err != nil {
			t.Fatalf("buildOracle(%v): %v", failed, err)
		}
		fresh, err := Build(dep, flows, failed)
		if err != nil {
			t.Fatalf("Build(%v): %v", failed, err)
		}
		cached, err := ctx.Build(failed)
		if err != nil {
			t.Fatalf("Context.Build(%v): %v", failed, err)
		}
		if !reflect.DeepEqual(want, fresh) {
			t.Fatalf("case %v: one-shot Build differs from buildOracle", failed)
		}
		if !reflect.DeepEqual(want, cached) {
			t.Fatalf("case %v: shared-context Build differs from buildOracle", failed)
		}
	}
}

// TestContextBuildRepeatable requires that compiling the same case twice off
// one Context yields deep-equal instances — the determinism the parallel
// sweep engine relies on.
func TestContextBuildRepeatable(t *testing.T) {
	dep, flows := contextFixtures(t)
	ctx, err := NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctx.Build([]int{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Build([]int{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated Context.Build of the same case diverged")
	}
}

// TestContextBuildValidation checks that the cached path rejects the same
// degenerate failure sets as the scratch oracle, with the same errors.
func TestContextBuildValidation(t *testing.T) {
	dep, flows := contextFixtures(t)
	ctx, err := NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	m := len(dep.Controllers)
	all := make([]int, m)
	for j := range all {
		all[j] = j
	}
	for _, failed := range [][]int{nil, {}, {-1}, {m}, {0, 0}, all} {
		_, err := ctx.Build(failed)
		if err == nil {
			t.Fatalf("Context.Build(%v) accepted an invalid case", failed)
		}
		if _, want := ctx.buildOracle(failed); err.Error() != want.Error() {
			t.Errorf("Context.Build(%v) err %q, oracle err %q", failed, err, want)
		}
	}
}

// lineContext is a 4-switch path graph split between two controllers. A
// tree has one simple path between any two switches, so no stop is
// programmable and every single-controller failure is rejected for having
// no recoverable offline flows.
func lineContext(t *testing.T) *Context {
	t.Helper()
	g := &topo.Graph{}
	for i := 0; i < 4; i++ {
		g.AddNode(fmt.Sprintf("s%d", i), 30, -100+float64(i))
	}
	for i := 0; i+1 < 4; i++ {
		if err := g.AddEdge(topo.NodeID(i), topo.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	dep := &topo.Deployment{Graph: g, Controllers: []topo.Controller{
		{Site: 0, Domain: []topo.NodeID{0, 1}, Capacity: 100},
		{Site: 3, Domain: []topo.NodeID{2, 3}, Capacity: 100},
	}}
	if err := dep.Validate(); err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(g, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestContextBuildPooledAcrossContexts runs concurrent Context.Build calls
// that interleave three Contexts — ATT, a small synthetic grid, and the
// all-unrecoverable line — with rejected cases (duplicate index, index out
// of range, all controllers failed, no recoverable flows) mixed among the
// valid ones. The pooled DeltaStates therefore keep crossing Contexts and
// carrying on after errors; every result, error text included, must equal
// the stateless scratch oracle's. Run it under -race.
func TestContextBuildPooledAcrossContexts(t *testing.T) {
	dep, flows := contextFixtures(t)
	att, err := NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	sdep, err := topo.Synthetic(16, 4, 10000)
	if err != nil {
		t.Fatal(err)
	}
	sflows, err := flow.Generate(sdep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	synth, err := NewContext(sdep, sflows)
	if err != nil {
		t.Fatal(err)
	}

	type job struct {
		ctx    *Context
		failed []int
	}
	var perCtx [][]job
	total := 0
	for _, ctx := range []*Context{att, synth, lineContext(t)} {
		m := len(ctx.Dep.Controllers)
		all := make([]int, m)
		for j := range all {
			all[j] = j
		}
		cases := append(CombinationsUpTo(m, 2), []int{0, 0}, []int{m}, []int{-1}, all)
		var js []job
		for _, failed := range cases {
			js = append(js, job{ctx, failed})
		}
		perCtx = append(perCtx, js)
		total += len(js)
	}
	// Round-robin over the Contexts so consecutive calls switch Context.
	var jobs []job
	for i := 0; len(jobs) < total; i++ {
		for _, js := range perCtx {
			if i < len(js) {
				jobs = append(jobs, js[i])
			}
		}
	}

	type result struct {
		inst *Instance
		err  error
	}
	want := make([]result, len(jobs))
	var rejected, unrecoverable int
	for i, jb := range jobs {
		inst, err := jb.ctx.buildOracle(jb.failed)
		want[i] = result{inst, err}
		if err != nil {
			rejected++
			if strings.Contains(err.Error(), "no recoverable offline flows") {
				unrecoverable++
			}
		}
	}
	if rejected == 0 || unrecoverable == 0 {
		t.Fatalf("fixture rejects %d cases, %d for no recoverable flows; want both > 0", rejected, unrecoverable)
	}

	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds*len(jobs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each worker starts at its own offset so concurrent
				// callers hit different Contexts at the same time.
				for k := range jobs {
					i := (k + w*len(jobs)/workers + r) % len(jobs)
					jb := jobs[i]
					got, err := jb.ctx.Build(jb.failed)
					switch {
					case (err == nil) != (want[i].err == nil):
						errs <- fmt.Sprintf("%v: err = %v, oracle err = %v", jb.failed, err, want[i].err)
					case err != nil && err.Error() != want[i].err.Error():
						errs <- fmt.Sprintf("%v: err %q, oracle err %q", jb.failed, err, want[i].err)
					case !reflect.DeepEqual(got, want[i].inst):
						errs <- fmt.Sprintf("%v on %d controllers: instance differs from buildOracle", jb.failed, len(jb.ctx.Dep.Controllers))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	n := 0
	for msg := range errs {
		if n++; n <= 10 {
			t.Error(msg)
		}
	}
	if n > 10 {
		t.Errorf("... and %d more mismatches", n-10)
	}
}

// TestSortPairsBySwitch checks the counting sort against the comparison sort
// it replaces on a synthetic flow-major pair list.
func TestSortPairsBySwitch(t *testing.T) {
	pairs := []core.Pair{
		{Switch: 2, Flow: 0, PBar: 2},
		{Switch: 0, Flow: 0, PBar: 3},
		{Switch: 1, Flow: 1, PBar: 2},
		{Switch: 0, Flow: 2, PBar: 4},
		{Switch: 2, Flow: 2, PBar: 2},
		{Switch: 1, Flow: 3, PBar: 5},
	}
	got := sortPairsBySwitch(pairs, 3, new([]int))
	want := []core.Pair{
		{Switch: 0, Flow: 0, PBar: 3},
		{Switch: 0, Flow: 2, PBar: 4},
		{Switch: 1, Flow: 1, PBar: 2},
		{Switch: 1, Flow: 3, PBar: 5},
		{Switch: 2, Flow: 0, PBar: 2},
		{Switch: 2, Flow: 2, PBar: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sortPairsBySwitch = %v, want %v", got, want)
	}
}
