package engine

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"scout/internal/fault"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/workload"
)

// recorder wraps a prefetcher and checks every observation it is handed
// against a fresh lookup and refinement on the test goroutine: Pages must
// be the region's candidate pages in lookup order, minus any the demand
// read lost, and Result must be exactly the refinement of Pages. The check
// repeats after the inner Observe returns (with a yield in between), so a
// result buffer the lookahead helper overwrote mid-call is caught.
type recorder struct {
	t       *testing.T
	inner   prefetch.Prefetcher
	store   *pagestore.Store
	index   Index
	panicAt int // observation count that panics; 0 never

	observed int // observations checked
	lossy    int // observations whose Pages lost candidate pages
}

func (r *recorder) Name() string        { return "recorder" }
func (r *recorder) Reset()              { r.inner.Reset() }
func (r *recorder) Plan() prefetch.Plan { return r.inner.Plan() }

func (r *recorder) Observe(obs prefetch.Observation) {
	r.t.Helper()
	r.observed++
	if r.observed == r.panicAt {
		panic("recorder: injected panic")
	}
	full := r.index.QueryPages(obs.Region, nil)
	if !isSubsequence(obs.Pages, full) {
		r.t.Fatalf("query %d: observed pages are not a subsequence of the region's candidate pages", obs.Seq)
	}
	if len(obs.Pages) < len(full) {
		r.lossy++
	}
	want := r.store.AppendMatches(obs.Region, obs.Pages, nil)
	if !slices.Equal(obs.Result, want) {
		r.t.Fatalf("query %d: observed result (%d objects) differs from refinement of the served pages (%d objects)",
			obs.Seq, len(obs.Result), len(want))
	}
	r.inner.Observe(obs)
	runtime.Gosched()
	time.Sleep(50 * time.Microsecond)
	if !slices.Equal(obs.Result, want) {
		r.t.Fatalf("query %d: observation result changed during Observe", obs.Seq)
	}
}

// isSubsequence reports whether sub is full with zero or more elements
// removed, order kept.
func isSubsequence(sub, full []pagestore.PageID) bool {
	j := 0
	for _, pg := range full {
		if j < len(sub) && sub[j] == pg {
			j++
		}
	}
	return j == len(sub)
}

// settleGoroutines fails the test unless the goroutine count drops back to
// base shortly: a lookahead helper must not outlive its RunSequence.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d running, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// sequenceRunner is the RunSequence surface the two single-coordinator
// engines share.
type sequenceRunner interface {
	RunSequence(workload.Sequence, prefetch.Prefetcher) SequenceResult
}

// lookaheadWalks is the test's sequence set: two random walks plus the
// 0- and 1-query edge cases.
func lookaheadWalks() []workload.Sequence {
	rng := rand.New(rand.NewSource(23))
	seqs := []workload.Sequence{randomWalk(rng, 14, 20), randomWalk(rng, 12, 20)}
	one := randomWalk(rng, 1, 20)
	empty := one
	empty.Queries = nil
	return append(seqs, empty, one)
}

// runRecorded runs every walk through e under a recorder, checking that
// the helper goroutine is gone after each call, and returns the results
// and the recorder.
func runRecorded(t *testing.T, e sequenceRunner, look *lookahead, store *pagestore.Store, index Index, inline bool) ([]SequenceResult, *recorder) {
	t.Helper()
	look.inline = inline
	rec := &recorder{t: t, inner: prefetch.NewStraightLine(20 * 20 * 20), store: store, index: index}
	base := runtime.NumGoroutine()
	var out []SequenceResult
	for _, seq := range lookaheadWalks() {
		out = append(out, e.RunSequence(seq, rec))
		settleGoroutines(t, base)
	}
	return out, rec
}

// TestLookaheadExact checks that refining one query ahead on a helper
// goroutine hands the prefetcher exactly what synchronous refinement
// would, on both single-coordinator engines, and changes no output: each
// configuration runs once with the helper and once inline, and the two
// must be DeepEqual. The sharded cells cover the lost-page fallback
// (S=4, R=1 under shard:outage, where the coordinator re-refines the
// served set) and replicated hedged reads.
func TestLookaheadExact(t *testing.T) {
	store, tree := cloudWorld(t, 3000, 17)
	if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	defer store.Relayout(pagestore.InsertionLayout())
	plan, err := fault.ParseProfile("shard:outage", 3)
	if err != nil {
		t.Fatal(err)
	}

	for _, batched := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.BatchedIO = batched
		var runs [2][]SequenceResult
		for i, inline := range []bool{false, true} {
			e := New(store, tree, cfg)
			var rec *recorder
			runs[i], rec = runRecorded(t, e, &e.look, store, tree, inline)
			if rec.lossy != 0 {
				t.Fatalf("Engine (BatchedIO=%v): %d observations lost pages", batched, rec.lossy)
			}
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Fatalf("Engine (BatchedIO=%v): lookahead run differs from inline run", batched)
		}
	}

	cells := []struct {
		name      string
		replicas  int
		hedge     float64
		wantLossy bool
	}{
		{"S=4/R=1/outage", 1, 0, true},
		{"S=4/R=2/hedge/outage", 2, 1.5, false},
	}
	for _, c := range cells {
		var runs [2][]SequenceResult
		var lossy [2]int
		for i, inline := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.BatchedIO = true
			cfg.Replicas = c.replicas
			cfg.Hedge = c.hedge
			cfg.Faults = fault.New(plan)
			e := NewShardedEngine(store, tree, cfg, 4)
			var rec *recorder
			runs[i], rec = runRecorded(t, e, &e.look, store, tree, inline)
			lossy[i] = rec.lossy
			e.Close()
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Fatalf("%s: lookahead run differs from inline run", c.name)
		}
		if c.wantLossy && lossy[0] == 0 {
			t.Fatalf("%s: no query lost pages; the lost-page fallback went untested", c.name)
		}
		if !c.wantLossy && lossy[0] != 0 {
			t.Fatalf("%s: replicated cell lost pages on %d queries", c.name, lossy[0])
		}
	}
}

// TestLookaheadPanicReleasesHelper checks that a prefetcher panic in the
// middle of a sequence still stops the helper goroutine, and that the
// engine runs the next sequence exactly afterwards.
func TestLookaheadPanicReleasesHelper(t *testing.T) {
	store, tree := cloudWorld(t, 3000, 17)
	seq := randomWalk(rand.New(rand.NewSource(5)), 10, 20)

	cfg := DefaultConfig()
	cfg.BatchedIO = true
	sharded := NewShardedEngine(store, tree, cfg, 4)
	defer sharded.Close()
	engines := []struct {
		name string
		run  sequenceRunner
	}{{"Engine", New(store, tree, cfg)}, {"ShardedEngine", sharded}}

	for _, eng := range engines {
		base := runtime.NumGoroutine()
		want := eng.run.RunSequence(seq, prefetch.NewStraightLine(20*20*20))
		for _, at := range []int{1, 4, 10} {
			rec := &recorder{t: t, inner: prefetch.NewStraightLine(20 * 20 * 20), store: store, index: tree, panicAt: at}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: injected panic at observation %d did not surface", eng.name, at)
					}
				}()
				eng.run.RunSequence(seq, rec)
			}()
			settleGoroutines(t, base)
			if got := eng.run.RunSequence(seq, prefetch.NewStraightLine(20*20*20)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: run after a panic at observation %d differs", eng.name, at)
			}
		}
	}
}
