package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one op share
// Op; Parent is the ID of the span that caused this one (0 for an op's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the traced run; they are written out
// when the run ends. A nil *tracer is the untraced run: every method is a
// no-op, and the workloads wire no hooks at all when it is nil.
//
// The workloads are closed loops, so at most one op is in flight; hooks
// that run on the program's own goroutines (the medic loop, the sweep
// workers) attach to it through the current-op root.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	op    int // current op number, 0 when none is open
	root  int // span ID of the current op's root
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// beginOp opens a new op and its root span; it returns the root's ID.
func (t *tracer) beginOp(name string) int {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Op: t.op, Name: name, Start: now, End: -1})
	t.root = id
	return id
}

// begin opens a child span of the current op's root.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.root, Op: t.op, Name: name, Start: now, End: -1})
	return id
}

// end closes a span opened by beginOp or begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// endOp closes the current op's root span and clears the current op.
func (t *tracer) endOp(id int) {
	t.end(id)
	if t == nil {
		return
	}
	t.mu.Lock()
	t.root = 0
	t.mu.Unlock()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (parallel
// workers) are counted once, and child time outside the parent is ignored.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, x := range ivs {
		switch {
		case !open:
			curA, curB, open = x.a, x.b, true
		case x.a <= curB:
			curB = max(curB, x.b)
		default:
			total += curB - curA
			curA, curB = x.a, x.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// spanIndex maps span IDs to spans.
func spanIndex(spans []span) map[int]span {
	out := make(map[int]span, len(spans))
	for _, s := range spans {
		out[s.ID] = s
	}
	return out
}

// idSet turns span IDs into a membership set.
func idSet(ids []int) map[int]bool {
	out := make(map[int]bool, len(ids))
	for _, id := range ids {
		out[id] = true
	}
	return out
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	durs []time.Duration
	busy time.Duration
}

// byName groups span durations by name.
func byName(spans []span) map[string]*layerStats {
	out := make(map[string]*layerStats)
	for _, s := range spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		ls.durs = append(ls.durs, s.dur())
		ls.busy += s.dur()
	}
	return out
}

// childBusy sums, per root span ID, the durations of its children with the
// given name ("" matches every child).
func childBusy(spans []span, name string) map[int]time.Duration {
	out := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 && (name == "" || s.Name == name) {
			out[s.Parent] += s.dur()
		}
	}
	return out
}

// addLayer sets a layer's p50 (ms) and busy (s) metrics from its spans.
func addLayer(vals map[string]float64, names map[string]*layerStats, span, p50, busy string) {
	ls := names[span]
	if ls == nil {
		return
	}
	vals[p50] = median(ms(ls.durs))
	vals[busy] = ls.busy.Seconds()
}

// holds renders whether a predicted dominance claim held.
func holds(ok bool) string {
	if ok {
		return "holds"
	}
	return "DOES NOT HOLD"
}

// tracePath names the span file of one traced run.
func tracePath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "recoverybench", fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
}
