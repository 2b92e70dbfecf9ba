package main

import (
	"sync"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		// Two overlapping children (parallel workers) cover 10..50 once.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 50 * ms},
		// A disjoint child covers 60..70.
		{ID: 4, Parent: 1, Name: "a", Start: 60 * ms, End: 70 * ms},
		// A child running past its parent counts only inside it.
		{ID: 5, Parent: 1, Name: "c", Start: 95 * ms, End: 120 * ms},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 6, Parent: 4, Name: "d", Start: 62 * ms, End: 66 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*time.Millisecond - 40*time.Millisecond - 10*time.Millisecond - 5*time.Millisecond,
		2: 30 * time.Millisecond,
		4: 6 * time.Millisecond,
		6: 4 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	busy := childBusy(spans, "a")
	if busy[1] != 40*time.Millisecond {
		t.Errorf("busy of a under op = %v, want 40ms", busy[1])
	}
}

func TestTracerAttachesHooksToCurrentOp(t *testing.T) {
	tr := newTracer()
	root := tr.beginOp("op")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.end(tr.begin("worker"))
		}()
	}
	wg.Wait()
	open := tr.begin("unfinished")
	tr.endOp(root)
	_ = open

	spans := tr.snapshot()
	if len(spans) != 5 {
		t.Fatalf("%d closed spans, want the root and 4 workers", len(spans))
	}
	for _, s := range spans[1:] {
		if s.Parent != root || s.Op != spans[0].Op {
			t.Fatalf("worker span %+v not attached to op root %d", s, root)
		}
	}
	next := tr.beginOp("op")
	if s := tr.snapshot(); len(s) != 5 || next == root {
		t.Fatalf("a second op must get a new root; got %d spans, root %d", len(s), next)
	}

	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x")) // the untraced run: no-ops
	nilTracer.endOp(nilTracer.beginOp("op"))
}
