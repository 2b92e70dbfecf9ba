package opt_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/opt"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

var update = flag.Bool("update", false, "rewrite testdata/att_optimal_golden.txt from the current solver")

const goldenPath = "testdata/att_optimal_golden.txt"

// TestOptimalATTGolden pins Optimal's output on every ATT 1–3-failure case,
// solved the way the paper sweep solves it: a 16-node branch-&-bound budget
// (the binding limit; the time limit is an hour), warm-started from PM. Any
// change to the simplex's pivot sequence, tolerances or factorization
// arithmetic that moves a node's LP moves these results, so the file is the
// bit-identity contract for solver performance work. Each line holds the
// case, then either "nosolution" or the SHA-256 of the switch mapping and
// active pairs, TotalProg, MinProg and the objective's IEEE-754 bits.
// Under -short only the 21 cases with at most two failures are checked.
func TestOptimalATTGolden(t *testing.T) {
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	maxK := 3
	if testing.Short() && !*update {
		maxK = 2
	}
	var got []string
	for _, set := range scenario.CombinationsUpTo(len(dep.Controllers), maxK) {
		inst, err := ctx.Build(set)
		if err != nil {
			t.Fatalf("case %v: %v", set, err)
		}
		got = append(got, goldenLine(t, inst, set))
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if testing.Short() && len(want) > len(got) {
		want = want[:len(got)]
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("case %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

func goldenLine(t *testing.T, inst *scenario.Instance, set []int) string {
	t.Helper()
	label := strings.Trim(strings.ReplaceAll(fmt.Sprint(set), " ", ","), "[]")
	pm, err := core.PM(inst.Problem)
	if err != nil {
		t.Fatalf("case %s: PM: %v", label, err)
	}
	sol, err := opt.Solve(inst.Problem, opt.Options{TimeLimit: time.Hour, MaxNodes: 16, Warm: pm})
	if errors.Is(err, opt.ErrNoSolution) {
		return label + " nosolution"
	}
	if err != nil {
		t.Fatalf("case %s: Optimal: %v", label, err)
	}
	rep, err := inst.Evaluate(sol)
	if err != nil {
		t.Fatalf("case %s: Evaluate: %v", label, err)
	}
	h := sha256.New()
	for _, j := range sol.SwitchController {
		_ = binary.Write(h, binary.LittleEndian, int32(j))
	}
	for _, on := range sol.Active {
		b := byte(0)
		if on {
			b = 1
		}
		h.Write([]byte{b})
	}
	return fmt.Sprintf("%s %x total=%d min=%d obj=%016x",
		label, h.Sum(nil), rep.TotalProg, rep.MinProg, math.Float64bits(rep.Objective))
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestOptimalATTGolden -update)", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
