// Command recoverybench is the repository's end-to-end benchmark. It runs
// one seeded workload in-process against the public surfaces of the
// recovery stack, checks every output, and prints the metrics named in
// BENCHMARK.json, one JSON object on the last line of standard output:
//
//	bash recoverybench/run.sh --workload att-failover --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics (measured with no hooks wired).
// --trace 1 prints the per-layer metrics: for each of the three workloads,
// whichever --workload names, it runs an untraced phase and then a traced
// phase with spans around every layer call, and reports each layer's
// metrics on the workload that exercises it as "<workload>.<metric>", with
// the traced/untraced gap as trace.overhead_pct. --workload all runs the
// three workloads one after another in one process.
//
//	bash recoverybench/run.sh compare BASE_DIR HEAD_DIR
//
// compares two sets of saved outputs (see compare.go). README.md in this
// directory defines each workload, op and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// header is the first output line: what was run, for the compare helper.
type header struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	Seconds    int    `json:"seconds"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	// work is a per-process scratch directory inside the checkout (WAL,
	// plan-store file); removed at exit.
	work string
}

// setupTimes are the layer timings of one set-up.
type setupTimes struct {
	total, flowGen, context time.Duration
}

// env is one set-up workload, ready for timed phases.
type env interface {
	// run measures into p until its deadline has passed and it has enough
	// samples; tr is nil for the untraced phase.
	run(tr *tracer, p *phase)
	close() error
}

// workload builds envs. tr is non-nil when the env must wire tracing hooks
// into the program (only the medic takes its hooks at construction).
type workload struct {
	name  string
	setup func(cfg *runConfig, tr *tracer) (env, setupTimes, error)
	// setups is how many times each run sets the workload up; setup_s is
	// the median, so one cold start or one disturbed set-up does not decide
	// it. Cheap set-ups repeat more.
	setups int
	// windows is how many equal time windows a timed phase is cut into (see
	// phase); fixed per workload, so it does not depend on how fast the
	// program runs. One window gives whole-run figures over the complete
	// passes. Only att-failover, whose latencies swing most with the host,
	// takes the least disturbed of several; each of its windows holds about
	// a p90's worth of samples at 30-second phases.
	windows int
	// layers are the per-layer metrics measured on this workload: the layers
	// it exercises. The traced run prints them as "<workload>.<metric>".
	layers []metricDef
}

var workloads = []workload{
	{name: "att-failover", setup: setupFailover, setups: 31, windows: 10, layers: failoverLayers},
	{name: "wan300-plan", setup: setupWANPlan, setups: 9, windows: 1, layers: wanLayers},
	{name: "att-paper", setup: setupPaper, setups: 31, windows: 1, layers: paperLayers},
}

// quality are the deterministic plan-quality guards.
type quality struct {
	recoveredPct, minProgMean, totalProgMean, refTotalProgMean float64
}

// chunk holds the samples of the whole passes over the workload's inputs
// that ended in one time window.
type chunk struct{ main, alt, batch []time.Duration }

// phase is what one timed phase measured.
//
// The phase is cut into a fixed number of equal time windows, and every
// complete pass over the workload's inputs is filed under the window it
// ended in (a pass cut short by the deadline is in the whole-run series
// only). Each timing metric is the lowest window's value: the median, p90
// or median batch of the least disturbed window, which with one window is
// the whole phase's. Neighbours on a shared host only ever add time; where
// they slow stretches of a run, the least disturbed window spreads less
// between runs than the whole run does. README.md says what this hides.
type phase struct {
	attempted, failed int
	errs              []string

	start, deadline time.Time
	// main and alt are the workload's two request latencies, batch its
	// batch-job durations (see README.md for what each means per workload),
	// over the whole phase.
	main, alt, batch []time.Duration
	// windows are the per-window samples; cur is the pass being measured.
	windows []chunk
	cur     chunk
	q       quality

	// layers are the per-layer metrics, filled by traced phases only.
	layers map[string]float64
	// table lists the workload's metrics under their own names, printed for
	// people (not parsed).
	table []string
}

func newPhase(length time.Duration, windows int) *phase {
	now := time.Now()
	return &phase{start: now, deadline: now.Add(length), windows: make([]chunk, windows)}
}

// enough reports whether the phase may stop: the deadline has passed and it
// holds a complete batch job and a p90's worth of main samples.
func (p *phase) enough() bool {
	return len(p.batch) >= 1 && len(p.main) >= minTailSamples && time.Now().After(p.deadline)
}

// addMain, addAlt and addBatch record one sample of the current pass.
func (p *phase) addMain(d time.Duration) {
	p.main = append(p.main, d)
	p.cur.main = append(p.cur.main, d)
}

func (p *phase) addAlt(d time.Duration) {
	p.alt = append(p.alt, d)
	p.cur.alt = append(p.cur.alt, d)
}

func (p *phase) addBatch(d time.Duration) {
	p.batch = append(p.batch, d)
	p.cur.batch = append(p.cur.batch, d)
}

// endPass files the current pass under the window it ended in; call it after
// every complete pass over the workload's inputs. Passes that end after the
// deadline go to the last window.
func (p *phase) endPass() {
	w := int(int64(len(p.windows)) * int64(time.Since(p.start)) / int64(p.deadline.Sub(p.start)))
	w = min(max(w, 0), len(p.windows)-1)
	c := &p.windows[w]
	c.main = append(c.main, p.cur.main...)
	c.alt = append(c.alt, p.cur.alt...)
	c.batch = append(c.batch, p.cur.batch...)
	p.cur = chunk{}
}

// perWindow returns stat of each non-empty window's series, in window order.
func (p *phase) perWindow(series func(chunk) []time.Duration, stat func([]float64) float64) []float64 {
	var out []float64
	for _, c := range p.windows {
		if s := series(c); len(s) > 0 {
			out = append(out, stat(ms(s)))
		}
	}
	return out
}

// lowest is the smallest of perWindow, NaN when no window holds a sample.
func (p *phase) lowest(series func(chunk) []time.Duration, stat func([]float64) float64) float64 {
	v := p.perWindow(series, stat)
	if len(v) == 0 {
		return math.NaN()
	}
	return slices.Min(v)
}

func mainSeries(c chunk) []time.Duration  { return c.main }
func altSeries(c chunk) []time.Duration   { return c.alt }
func batchSeries(c chunk) []time.Duration { return c.batch }

func (p *phase) mainP50() float64 { return p.lowest(mainSeries, median) }
func (p *phase) mainP90() float64 { return p.lowest(mainSeries, p90) }
func (p *phase) altP50() float64  { return p.lowest(altSeries, median) }

// batchS is the lowest window's median batch job, in seconds.
func (p *phase) batchS() float64 { return p.lowest(batchSeries, median) / 1000 }

// fail records a failed op.
func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 20 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// metricDef is a metric name with its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics; every workload prints all of them.
// BENCHMARK.json holds the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"main_p50_ms", "ms"},
	{"main_p90_ms", "ms"},
	{"alt_p50_ms", "ms"},
	{"batch_s", "s"},
	{"recovered_flow_pct", "%"},
	{"min_prog_mean", "count"},
	{"total_prog_mean", "count"},
	{"ref_total_prog_mean", "count"},
	{"live_heap_mb", "MB"},
}

// commonLayers are the per-layer metrics every workload reports, after its
// own (workload.layers).
var commonLayers = []metricDef{
	{"go.gc_cycles", "count/op"},
	{"go.alloc_mb", "MB/op"},
	{"flow.generate_s", "s"},
	{"scenario.context_s", "s"},
	{"trace.overhead_pct", "%"},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err := compareMain(os.Args[2:], os.Stdout)
		switch {
		case errors.Is(err, errRegression):
			fmt.Fprintln(os.Stderr, "recoverybench compare:", err)
			os.Exit(1)
		case err != nil:
			fmt.Fprintln(os.Stderr, "recoverybench compare:", err)
			os.Exit(2)
		}
		return
	}
	code, err := benchMain(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "recoverybench:", err)
	}
	os.Exit(code)
}

// benchMain runs the benchmark and returns the exit code: 0 when every op
// passed its checks, 1 when any failed (the result line is still printed),
// 2 when the run could not complete (no result line).
func benchMain(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("recoverybench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: att-failover, wan300-plan, att-paper, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "length of each timed phase, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced phase")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	var run []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		return 2, fmt.Errorf("unknown --workload %q", *name)
	}
	traced := *trace == 1
	phaseLen := time.Duration(*seconds) * time.Second
	if traced {
		// Each per-layer metric is measured on the workload that exercises
		// its layer, so the traced run covers all three, splitting the time
		// between their untraced and traced phases.
		run = workloads
		phaseLen = max(phaseLen/time.Duration(2*len(run)), time.Second)
	}

	base := filepath.Join(".bench_build", "recoverybench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return 2, err
	}
	work, err := os.MkdirTemp(base, "work-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(work)
	cfg := &runConfig{seed: *seed, seconds: phaseLen, work: work}

	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range run {
		hdr := header{Workload: w.name, Seed: *seed, Trace: *trace, Seconds: *seconds,
			GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
		raw, _ := json.Marshal(hdr)
		fmt.Fprintln(out, string(raw))
		res, err := runWorkload(w, cfg, traced, out)
		if err != nil {
			return 2, fmt.Errorf("%s: %w", w.name, err)
		}
		if len(run) == 1 {
			total = res
			break
		}
		raw, _ = json.Marshal(res)
		fmt.Fprintln(out, string(raw))
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	if len(run) > 1 {
		// The combined result gets a header of its own, so the compare
		// helper can attribute it.
		raw, _ := json.Marshal(header{Workload: "all", Seed: *seed, Trace: *trace, Seconds: *seconds,
			GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()})
		fmt.Fprintln(out, string(raw))
	}
	raw, err := json.Marshal(total)
	if err != nil {
		return 2, err
	}
	fmt.Fprintln(out, string(raw))
	if !total.Correct {
		return 1, fmt.Errorf("%d of %d ops failed their checks", total.Failed, total.Attempted)
	}
	return 0, nil
}

// runWorkload sets the workload up (several times, for setup_s), runs its
// phases and assembles the result.
func runWorkload(w workload, cfg *runConfig, traced bool, out io.Writer) (result, error) {
	var (
		e      env
		setups []setupTimes
		tr     *tracer
	)
	for i := 0; i < w.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return result{}, fmt.Errorf("teardown: %w", err)
			}
		}
		var st setupTimes
		var err error
		if e, st, err = w.setup(cfg, nil); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, st)
	}
	closed := false
	defer func() {
		if !closed {
			_ = e.close()
		}
	}()
	pick := func(f func(setupTimes) time.Duration) float64 {
		v := make([]float64, len(setups))
		for i, s := range setups {
			v[i] = f(s).Seconds()
		}
		return median(v)
	}

	res := result{Metrics: map[string]metricValue{}}
	untraced := newPhase(cfg.seconds, w.windows)
	e.run(nil, untraced)
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second drops them, so what remains is the retained heap
	// whatever the timing of the last background cycle.
	runtime.GC()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p := untraced
	if traced {
		// The medic takes its hooks at construction, so the traced phase gets
		// a fresh, hooked set-up; the other workloads pass hooks per call.
		tr = newTracer()
		if err := e.close(); err != nil {
			return result{}, fmt.Errorf("teardown: %w", err)
		}
		var err error
		if e, _, err = w.setup(cfg, tr); err != nil {
			return result{}, fmt.Errorf("traced setup: %w", err)
		}
		runtime.ReadMemStats(&ms0)
		p = newPhase(cfg.seconds, w.windows)
		e.run(tr, p)
		runtime.ReadMemStats(&ms1)
		p.attempted += untraced.attempted
		p.failed += untraced.failed
		p.errs = append(untraced.errs, p.errs...)
	}
	closed = true
	if err := e.close(); err != nil {
		return result{}, fmt.Errorf("teardown: %w", err)
	}

	for _, line := range p.table {
		fmt.Fprintln(out, "#", line)
	}
	for _, msg := range p.errs {
		fmt.Fprintln(out, "# FAILED:", msg)
	}
	res.Attempted, res.Failed = p.attempted, p.failed
	res.Correct = p.failed == 0 && p.attempted > 0

	if !traced {
		vals := map[string]float64{
			"setup_s":             pick(func(s setupTimes) time.Duration { return s.total }),
			"main_p50_ms":         p.mainP50(),
			"main_p90_ms":         p.mainP90(),
			"alt_p50_ms":          p.altP50(),
			"batch_s":             p.batchS(),
			"recovered_flow_pct":  p.q.recoveredPct,
			"min_prog_mean":       p.q.minProgMean,
			"total_prog_mean":     p.q.totalProgMean,
			"ref_total_prog_mean": p.q.refTotalProgMean,
			"live_heap_mb":        float64(ms1.HeapAlloc) / (1 << 20),
		}
		fmt.Fprintf(out, "# samples: main=%d alt=%d batch=%d in %d windows of %v, setups=%d\n",
			len(p.main), len(p.alt), len(p.batch), len(p.windows), cfg.seconds/time.Duration(len(p.windows)), len(setups))
		fmt.Fprintf(out, "# whole-run: main p50 %.4f p90 %.4f ms, alt p50 %.4f ms, batch median %.4f s\n",
			median(ms(p.main)), p90(ms(p.main)), median(ms(p.alt)), median(secs(p.batch)))
		fmt.Fprintf(out, "# per window: main p50 %.4f ms; main p90 %.4f ms; alt p50 %.4f ms; batch median %.4f ms\n",
			p.perWindow(mainSeries, median), p.perWindow(mainSeries, p90),
			p.perWindow(altSeries, median), p.perWindow(batchSeries, median))
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
		return res, finite(res)
	}

	vals := p.layers
	if vals == nil {
		vals = map[string]float64{}
	}
	ops := float64(max(p.attempted-untraced.attempted, 1))
	vals["go.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / ops
	vals["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / ops
	vals["flow.generate_s"] = pick(func(s setupTimes) time.Duration { return s.flowGen })
	vals["scenario.context_s"] = pick(func(s setupTimes) time.Duration { return s.context })
	vals["trace.overhead_pct"] = (p.mainP50()/untraced.mainP50() - 1) * 100
	if err := tr.writeFile(tracePath(w.name, cfg.seed)); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(out, "# spans written to %s\n", tracePath(w.name, cfg.seed))
	for _, m := range append(append([]metricDef(nil), w.layers...), commonLayers...) {
		v, ok := vals[m.name]
		if !ok {
			v = math.NaN()
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, finite(res)
}

// finite rejects a metric that could not be measured (NaN or infinite):
// too few samples means the run is invalid, not that the metric is 0. After
// a failed op the run is already invalid; such metrics then read 0 so the
// result line, with its failed count, still prints.
func finite(res result) error {
	var bad []string
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			bad = append(bad, k)
			v.Value = 0
			res.Metrics[k] = v
		}
	}
	if len(bad) > 0 && res.Failed == 0 {
		sort.Strings(bad)
		return fmt.Errorf("unmeasured metrics: %s", strings.Join(bad, ", "))
	}
	return nil
}
