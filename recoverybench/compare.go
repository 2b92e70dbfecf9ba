package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The compare helper applies the rule for claiming a performance change to
// two sets of saved benchmark outputs (one file per run, the benchmark's
// standard output): a parent ("base") and a change ("head"), measured with
// the same benchmark and settings.
//
//	bash recoverybench/run.sh compare BASE_DIR HEAD_DIR
//
// It reads each metric's direction and bound from BENCHMARK.json in the
// working directory (run.sh runs from the repository root).
//
// Per workload and metric it prints each side's median and quartiles, the
// share of base/head pairs the head wins (pairs match by seed, else by file
// order; ties count for neither), and a verdict:
//
//   - better: the head wins at least 9/10 of the pairs and the medians
//     differ by more than the base's own spread (its IQR);
//   - worse: the head's median is worse than the base's by more than the
//     metric's bound (end-to-end metrics only);
//   - unresolved: the base's spread (IQR / median) exceeds the bound, so a
//     change within it cannot be told from noise — unless every head run is
//     better (or worse) than every base run;
//   - same: none of the above.
//
// It exits with status 1 when any end-to-end metric is worse or any head
// run failed more ops than its base.

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the helper reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// savedRun is one parsed output file.
type savedRun struct {
	file string
	hdr  header
	res  result
}

// parseRuns reads every regular file in dir. A file may hold several
// header/result pairs (--workload all); each result line is attributed to
// the header before it.
func parseRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		rs, err := parseOutput(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, rs...)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", dir)
	}
	return runs, nil
}

func parseOutput(path string) ([]savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var (
		runs []savedRun
		cur  *header
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var probe map[string]json.RawMessage
		if json.Unmarshal([]byte(line), &probe) != nil {
			continue
		}
		switch {
		case probe["workload"] != nil:
			var h header
			if err := json.Unmarshal([]byte(line), &h); err != nil {
				return nil, err
			}
			cur = &h
		case probe["metrics"] != nil && cur != nil:
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, err
			}
			runs = append(runs, savedRun{file: filepath.Base(path), hdr: *cur, res: r})
			cur = nil
		}
	}
	return runs, sc.Err()
}

// comparison is one row of the report.
type comparison struct {
	workload, metric, unit string
	base, head             []float64
	// wins is the share of pairs the head wins.
	wins    float64
	spread  float64 // base IQR / base median
	verdict string
}

// groupKey separates workloads and traced from untraced runs.
type groupKey struct {
	workload string
	trace    int
}

// compareRuns applies the rule to every metric both sides report.
func compareRuns(base, head []savedRun, sp spec) ([]comparison, []string) {
	metrics := map[string]specMetric{}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		metrics[m.Name] = m
	}
	group := func(runs []savedRun) map[groupKey][]savedRun {
		out := map[groupKey][]savedRun{}
		for _, r := range runs {
			k := groupKey{r.hdr.Workload, r.hdr.Trace}
			out[k] = append(out[k], r)
		}
		for _, rs := range out {
			sort.SliceStable(rs, func(a, b int) bool { return rs[a].file < rs[b].file })
		}
		return out
	}
	bg, hg := group(base), group(head)
	keys := make([]groupKey, 0, len(bg))
	for k := range bg {
		if hg[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].workload != keys[b].workload {
			return keys[a].workload < keys[b].workload
		}
		return keys[a].trace < keys[b].trace
	})

	var rows []comparison
	var notes []string
	for _, k := range keys {
		bs, hs := pairUp(bg[k], hg[k])
		bFailed, hFailed := failedOps(bg[k]), failedOps(hg[k])
		if hFailed > bFailed {
			notes = append(notes, fmt.Sprintf("%s: head runs failed %d ops, base runs %d", k.workload, hFailed, bFailed))
		}
		names := map[string]bool{}
		for _, r := range bs {
			for n := range r.res.Metrics {
				names[n] = true
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, name := range sorted {
			m, ok := metrics[name]
			if !ok {
				continue
			}
			var bv, hv []float64
			for i := range bs {
				b, okb := bs[i].res.Metrics[name]
				h, okh := hs[i].res.Metrics[name]
				if okb && okh {
					bv = append(bv, b.Value)
					hv = append(hv, h.Value)
				}
			}
			if len(bv) == 0 {
				continue
			}
			rows = append(rows, judge(k.workload, m, bv, hv))
		}
	}
	return rows, notes
}

// pairUp matches base and head runs by seed when both sides ran the same
// seeds, otherwise by position; unmatched runs are dropped.
func pairUp(base, head []savedRun) ([]savedRun, []savedRun) {
	bySeed := map[int64]savedRun{}
	for _, r := range head {
		bySeed[r.hdr.Seed] = r
	}
	var bs, hs []savedRun
	if len(bySeed) == len(head) {
		for _, b := range base {
			if h, ok := bySeed[b.hdr.Seed]; ok {
				bs, hs = append(bs, b), append(hs, h)
			}
		}
		if len(bs) == len(base) && len(bs) == len(head) {
			return bs, hs
		}
	}
	n := min(len(base), len(head))
	return base[:n], head[:n]
}

func failedOps(runs []savedRun) int {
	n := 0
	for _, r := range runs {
		n += r.res.Failed
		if !r.res.Correct && r.res.Failed == 0 {
			n++
		}
	}
	return n
}

// judge applies the rule to one metric's paired values (base[i] pairs with
// head[i]).
func judge(workload string, m specMetric, base, head []float64) comparison {
	c := comparison{workload: workload, metric: m.Name, unit: m.Unit, base: base, head: head}
	lower := m.Better != "higher"
	better := func(h, b float64) bool {
		if lower {
			return h < b
		}
		return h > b
	}
	won := 0
	for i := range base {
		if better(head[i], base[i]) {
			won++
		}
	}
	c.wins = float64(won) / float64(len(base))

	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	iqr := bq3 - bq1
	c.spread = relIQR(base)
	allBetter, allWorse := true, true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
			allWorse = allWorse && better(b, h)
		}
	}
	worseBy := (hmed - bmed) / math.Abs(bmed)
	if !lower {
		worseBy = -worseBy
	}
	if bmed == 0 {
		worseBy = 0
	}
	switch {
	case c.wins >= 0.9 && math.Abs(hmed-bmed) > iqr && better(hmed, bmed):
		c.verdict = "better"
	case m.Bound != nil && c.spread > *m.Bound && allBetter:
		c.verdict = "better (every run)"
	case m.Bound != nil && c.spread > *m.Bound && allWorse:
		c.verdict = "worse (every run)"
	case m.Bound != nil && c.spread > *m.Bound:
		c.verdict = "unresolved"
	case m.Bound != nil && worseBy > *m.Bound:
		c.verdict = "worse"
	default:
		c.verdict = "same"
	}
	return c
}

// errRegression is compareMain's verdict that the head is worse.
var errRegression = errors.New("regression found")

func compareMain(args []string, out io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: compare BASE_DIR HEAD_DIR")
	}
	return compareDirs("BENCHMARK.json", args[0], args[1], out)
}

// compareDirs compares the saved outputs in baseDir and headDir under the
// metrics of the benchmark spec at specPath.
func compareDirs(specPath, baseDir, headDir string, out io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := parseRuns(baseDir)
	if err != nil {
		return err
	}
	head, err := parseRuns(headDir)
	if err != nil {
		return err
	}
	rows, notes := compareRuns(base, head, sp)
	regress := len(notes) > 0
	e2e := map[string]bool{}
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = true
	}
	fmt.Fprintf(out, "%-14s %-32s %-10s %30s %30s %6s %7s  %s\n",
		"workload", "metric", "unit", "base q1/median/q3", "head q1/median/q3", "wins", "spread", "verdict")
	for _, r := range rows {
		b1, b2, b3 := quartiles(r.base)
		h1, h2, h3 := quartiles(r.head)
		fmt.Fprintf(out, "%-14s %-32s %-10s %30s %30s %5.0f%% %7.4f  %s\n",
			r.workload, r.metric, r.unit,
			fmt.Sprintf("%.4g/%.4g/%.4g", b1, b2, b3), fmt.Sprintf("%.4g/%.4g/%.4g", h1, h2, h3),
			100*r.wins, r.spread, r.verdict)
		if e2e[r.metric] && strings.HasPrefix(r.verdict, "worse") {
			regress = true
		}
	}
	for _, n := range notes {
		fmt.Fprintln(out, "note:", n)
	}
	if regress {
		return errRegression
	}
	return nil
}
