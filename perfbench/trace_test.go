package main

import (
	"sync"
	"testing"

	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
)

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{"none", 0, 100, nil, 0},
		{"disjoint", 0, 100, [][2]int64{{10, 20}, {30, 45}}, 25},
		{"overlapping", 0, 100, [][2]int64{{10, 30}, {20, 40}}, 30},
		{"nested", 0, 100, [][2]int64{{10, 60}, {20, 30}}, 50},
		{"touching", 0, 100, [][2]int64{{10, 20}, {20, 30}}, 20},
		{"unsorted", 0, 100, [][2]int64{{50, 70}, {10, 20}, {15, 55}}, 60},
		{"clipped", 10, 50, [][2]int64{{0, 20}, {40, 90}}, 20},
		{"outside", 10, 50, [][2]int64{{0, 5}, {60, 90}}, 0},
		{"empty interval", 0, 100, [][2]int64{{30, 30}}, 0},
	} {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// A sequence with sequential children: self time is the gaps.
	// A plan span whose children overlap across two workers: the overlap
	// is subtracted once, so self time never goes negative.
	spans := []span{
		{ID: 1, Name: spanSequence, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanLookup, Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: spanObserve, Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: spanPlanPF, Start: 70, End: 75},
		{ID: 5, Name: spanPlan, Start: 200, End: 300},
		{ID: 6, Parent: 5, Name: spanObserve, Start: 200, End: 280},
		{ID: 7, Parent: 5, Name: spanObserve, Start: 210, End: 290},
		{ID: 8, Parent: 5, Name: spanLookup, Start: 295, End: 300},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 35, 2: 20, 3: 40, 5: 5, 6: 80} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
	// Busy time of the plan's children (80+80+5) exceeds its interval;
	// self time is what the union leaves.
	var busy int64
	for _, s := range spans[5:] {
		busy += s.dur()
	}
	if busy <= spans[4].dur() {
		t.Errorf("busy %d should exceed the interval %d here", busy, spans[4].dur())
	}
}

// fakeIndex returns one page per lookup.
type fakeIndex struct{}

func (fakeIndex) QueryPages(_ geom.Region, dst []pagestore.PageID) []pagestore.PageID {
	return append(dst, 0)
}

// fakePrefetcher plans two requests and counts its calls.
type fakePrefetcher struct{ observes int }

func (*fakePrefetcher) Name() string                   { return "fake" }
func (p *fakePrefetcher) Observe(prefetch.Observation) { p.observes++ }
func (*fakePrefetcher) Plan() prefetch.Plan {
	return prefetch.Plan{Requests: make([]prefetch.Request, 2)}
}
func (*fakePrefetcher) Reset()                     {}
func (*fakePrefetcher) Clone() prefetch.Prefetcher { return &fakePrefetcher{} }

func TestDecoratorsRecordUnderScope(t *testing.T) {
	store := pagestore.NewStore(nil)
	tr := newTracer(store)
	ix := tr.index(fakeIndex{})
	inner := &fakePrefetcher{}
	p := tr.prefetcher(inner, -1)

	done := tr.enter(spanSequence, 4)
	ix.QueryPages(geom.AABB{}, nil)
	p.Observe(prefetch.Observation{})
	p.Plan()
	done()

	spans := tr.rec.snapshot()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	seq := spans[3]
	if seq.Name != spanSequence || seq.Parent != 0 || seq.Seq != 4 {
		t.Fatalf("sequence span = %+v", seq)
	}
	for _, s := range spans[:3] {
		if s.Parent != seq.ID || s.Seq != 4 || s.Start < seq.Start || s.End > seq.End {
			t.Errorf("child %+v not inside sequence %+v", s, seq)
		}
	}
	if tr.parent != 0 || tr.seq != -1 {
		t.Errorf("scope not restored: parent %d seq %d", tr.parent, tr.seq)
	}
	c := tr.counters()
	if c.observes != 1 || c.plans != 1 || c.requests != 2 || tr.lookups.Load() != 1 || tr.pages.Load() != 1 {
		t.Errorf("counters %+v lookups %d pages %d", c, tr.lookups.Load(), tr.pages.Load())
	}
	if inner.observes != 1 {
		t.Errorf("inner prefetcher saw %d observations, want 1", inner.observes)
	}
}

func TestTracedPrefetcherClonesFanOut(t *testing.T) {
	// Clones register their own counters and record concurrently, as
	// Engine.RunEach and PlanSessions drive them.
	tr := newTracer(pagestore.NewStore(nil))
	base := tr.prefetcher(&fakePrefetcher{}, -1)
	var _ prefetch.Cloner = base
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		c := base.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Observe(prefetch.Observation{})
				c.Plan()
			}
		}()
	}
	wg.Wait()
	if got := tr.counters().observes; got != 400 {
		t.Errorf("observes = %d, want 400", got)
	}
	if got := len(tr.rec.snapshot()); got != 800 {
		t.Errorf("spans = %d, want 800", got)
	}
}
