package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scout/internal/core"
	"scout/internal/engine"
	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
)

// Span names. Each span wraps one call into a layer from outside it.
const (
	spanSequence = "engine.sequence" // RunSequence (walk, sweep)
	spanCell     = "engine.cell"     // one sweep cell: a fresh ShardedEngine
	spanRound    = "engine.round"    // one serve round: plan + commit
	spanPlan     = "engine.plan"     // PlanSessions
	spanCommit   = "engine.commit"   // SessionPlans.Serve
	spanLookup   = "rtree.query_pages"
	spanObserve  = "core.observe"
	spanPlanPF   = "core.plan"
)

// span is one timed call. Times are nanoseconds since the recorder's
// epoch; Seq is the sequence or session the call served (-1 when the
// caller cannot tell, e.g. index lookups from concurrent plan workers).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Seq    int32  `json:"seq"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() int64 { return r.next.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval covered by the union of its children. Children of one parent may
// overlap — the plan phase's workers run lookups concurrently — so covered
// time is a union, never a sum.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sorted := append([][2]int64(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, iv := range sorted {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// tracer owns the recorder and the decorators of one traced run. The
// workload sets parent and seq before each call into the engine; the
// decorators read them. They are never written while an engine call is in
// flight, so concurrent plan workers only read.
type tracer struct {
	rec    *recorder
	parent int64
	seq    int32
	store  *pagestore.Store

	mu  sync.Mutex
	pfs []*tracedPrefetcher

	lookups atomic.Int64
	pages   atomic.Int64
}

func newTracer(store *pagestore.Store) *tracer {
	return &tracer{rec: newRecorder(), store: store, seq: -1}
}

// enter opens a span under the current parent, makes it the current
// parent for the decorators, and returns a function that closes it and
// restores the previous scope.
func (t *tracer) enter(name string, seq int32) func() {
	id, start := t.rec.newID(), t.rec.now()
	parent, prevSeq := t.parent, t.seq
	t.parent, t.seq = id, seq
	return func() {
		t.rec.add(span{ID: id, Parent: parent, Seq: seq, Name: name, Start: start, End: t.rec.now()})
		t.parent, t.seq = parent, prevSeq
	}
}

// tracedIndex times every page lookup of the engine's index.
type tracedIndex struct {
	t     *tracer
	inner engine.Index
}

func (t *tracer) index(ix engine.Index) engine.Index { return &tracedIndex{t: t, inner: ix} }

// QueryPages implements engine.Index.
func (x *tracedIndex) QueryPages(r geom.Region, dst []pagestore.PageID) []pagestore.PageID {
	t := x.t
	parent, seq := t.parent, t.seq
	start := t.rec.now()
	n0 := len(dst)
	out := x.inner.QueryPages(r, dst)
	t.rec.add(span{ID: t.rec.newID(), Parent: parent, Seq: seq, Name: spanLookup, Start: start, End: t.rec.now()})
	t.lookups.Add(1)
	t.pages.Add(int64(len(out) - n0))
	return out
}

// pfCounters are one prefetcher decorator's per-layer counts. Each
// decorator is driven by one goroutine at a time, so they are plain ints.
type pfCounters struct {
	observes, plans, requests int64
	vertices, edges, cands    int64
	deltas, gapPages          int64
	modeled                   time.Duration // GraphBuild + Prediction
	examined, results         int64
}

func (c *pfCounters) add(o pfCounters) {
	c.observes += o.observes
	c.plans += o.plans
	c.requests += o.requests
	c.vertices += o.vertices
	c.edges += o.edges
	c.cands += o.cands
	c.deltas += o.deltas
	c.gapPages += o.gapPages
	c.modeled += o.modeled
	c.examined += o.examined
	c.results += o.results
}

// statser is the public per-observation ledger of SCOUT and SCOUT-OPT.
type statser interface{ LastStats() core.QueryStats }

// tracedPrefetcher times Observe and Plan and reads the prefetcher's
// public counters after each observation. session >= 0 pins the span's
// sequence ID (serve); -1 takes the tracer's current one.
type tracedPrefetcher struct {
	t       *tracer
	inner   prefetch.Prefetcher
	session int32
	c       pfCounters
}

// prefetcher wraps p and registers the decorator's counters.
func (t *tracer) prefetcher(p prefetch.Prefetcher, session int32) *tracedPrefetcher {
	tp := &tracedPrefetcher{t: t, inner: p, session: session}
	t.mu.Lock()
	t.pfs = append(t.pfs, tp)
	t.mu.Unlock()
	return tp
}

// counters sums every registered decorator's counters.
func (t *tracer) counters() pfCounters {
	t.mu.Lock()
	defer t.mu.Unlock()
	var c pfCounters
	for _, p := range t.pfs {
		c.add(p.c)
	}
	return c
}

func (p *tracedPrefetcher) scope() (int64, int32) {
	if p.session >= 0 {
		return p.t.parent, p.session
	}
	return p.t.parent, p.t.seq
}

// Name implements prefetch.Prefetcher.
func (p *tracedPrefetcher) Name() string { return p.inner.Name() }

// Reset implements prefetch.Prefetcher.
func (p *tracedPrefetcher) Reset() { p.inner.Reset() }

// Observe implements prefetch.Prefetcher.
func (p *tracedPrefetcher) Observe(obs prefetch.Observation) {
	t := p.t
	parent, seq := p.scope()
	start := t.rec.now()
	p.inner.Observe(obs)
	t.rec.add(span{ID: t.rec.newID(), Parent: parent, Seq: seq, Name: spanObserve, Start: start, End: t.rec.now()})
	c := &p.c
	c.observes++
	for _, pg := range obs.Pages {
		c.examined += int64(len(t.store.PageObjects(pg)))
	}
	c.results += int64(len(obs.Result))
	if s, ok := p.inner.(statser); ok {
		st := s.LastStats()
		c.vertices += int64(st.Vertices)
		c.edges += int64(st.Edges)
		c.cands += int64(st.Candidates)
		c.gapPages += int64(st.GapPages)
		c.modeled += st.GraphBuild + st.Prediction
		if st.GraphDelta {
			c.deltas++
		}
	}
}

// Plan implements prefetch.Prefetcher.
func (p *tracedPrefetcher) Plan() prefetch.Plan {
	t := p.t
	parent, seq := p.scope()
	start := t.rec.now()
	plan := p.inner.Plan()
	t.rec.add(span{ID: t.rec.newID(), Parent: parent, Seq: seq, Name: spanPlanPF, Start: start, End: t.rec.now()})
	p.c.plans++
	p.c.requests += int64(len(plan.Requests))
	return plan
}

// Clone implements prefetch.Cloner, so Engine.RunEach keeps fanning
// traced runs out across workers; the clone registers its own counters.
func (p *tracedPrefetcher) Clone() prefetch.Prefetcher {
	return p.t.prefetcher(p.inner.(prefetch.Cloner).Clone(), p.session)
}
