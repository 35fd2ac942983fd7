package engine

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"scout/internal/fault"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
)

// TestRouterSplitReuseAliasing pins the Split reuse contract and its hazard:
// passing the previous result back as dst reuses its backing arrays (no
// per-call allocation), which means the OLD slices are clobbered in place —
// exactly why every fan-out copies its sub-batch (sh.batch) before handing
// the scratch back. A caller holding slices across a re-split would silently
// read the next query's pages.
func TestRouterSplitReuseAliasing(t *testing.T) {
	store, tree := cloudWorld(t, 3000, 23)
	if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	defer store.Relayout(pagestore.InsertionLayout())

	const shards = 4
	r := NewRouter(store, pagestore.NewPartition(store, shards), pagestore.DefaultCostModel())
	rng := rand.New(rand.NewSource(5))
	seqA := randomWalk(rng, 2, 24)
	seqB := randomWalk(rng, 2, 24)
	pagesA := tree.QueryPages(seqA.Queries[0].Region, nil)
	pagesB := tree.QueryPages(seqB.Queries[1].Region, nil)
	if len(pagesA) == 0 || len(pagesB) == 0 {
		t.Fatal("empty query page sets; test is vacuous")
	}

	parts := r.Split(pagesA, nil)
	held := make([][]pagestore.PageID, shards)
	caps := make([]int, shards)
	for i := range parts {
		held[i] = parts[i] // aliased header, the hazard under test
		caps[i] = cap(parts[i])
	}

	parts2 := r.Split(pagesB, parts)

	// Reuse really reused: no shard's backing array was reallocated unless
	// it had to grow, and where both splits filled a shard the old held
	// header now shows the NEW pages (the alias is live, not a copy).
	inB := make(map[pagestore.PageID]bool, len(pagesB))
	for _, pg := range pagesB {
		inB[pg] = true
	}
	total := 0
	for i := range parts2 {
		total += len(parts2[i])
		if cap(parts2[i]) < caps[i] && len(parts2[i]) <= caps[i] {
			t.Errorf("shard %d: reuse shrank capacity %d -> %d", i, caps[i], cap(parts2[i]))
		}
		for _, pg := range parts2[i] {
			if !inB[pg] {
				t.Fatalf("shard %d: stale page %d from the previous split leaked through", i, pg)
			}
			if own := r.Partition().ShardOf(store, pg); own != i {
				t.Fatalf("shard %d: page %d belongs to shard %d", i, pg, own)
			}
		}
		if len(parts2[i]) > 0 && len(parts2[i]) <= caps[i] && caps[i] > 0 {
			if &parts2[i][0] != &held[i][:1][0] {
				t.Errorf("shard %d: backing array was reallocated despite sufficient capacity", i)
			}
		}
	}
	if total != len(pagesB) {
		t.Fatalf("re-split dropped pages: %d != %d", total, len(pagesB))
	}
}

// TestShardSetPanicSurfaces: a panic on one shard worker must re-panic on
// the coordinator (silent loss is worse than a crash), every other shard
// must still complete its task, and the set must remain fully usable — the
// worker goroutines and mailboxes survive, so later fan-outs neither
// deadlock nor miss a shard.
func TestShardSetPanicSurfaces(t *testing.T) {
	const shards = 4
	state := make([]*int32, shards)
	for i := range state {
		state[i] = new(int32)
	}
	set := NewShardSet(state)
	defer set.Close()

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic on shard 2 was swallowed")
			}
			if r != "shard 2 boom" {
				t.Fatalf("wrong panic surfaced: %v", r)
			}
		}()
		set.Do(func(i int, n *int32) {
			if i == 2 {
				panic("shard 2 boom")
			}
			atomic.AddInt32(n, 1)
		})
	}()
	for i, n := range state {
		want := int32(1)
		if i == 2 {
			want = 0
		}
		if *n != want {
			t.Fatalf("after panic, shard %d count %d, want %d", i, *n, want)
		}
	}

	set.Do(func(i int, n *int32) { atomic.AddInt32(n, 1) })
	for i, n := range state {
		want := int32(2)
		if i == 2 {
			want = 1
		}
		if *n != want {
			t.Fatalf("post-panic fan-out broken: shard %d count %d, want %d", i, *n, want)
		}
	}
}

// TestFailoverLedgerRecovery is the half-open recovery contract on the
// virtual clock: a tripped shard health ledger routes the shard's demand to
// its replica for exactly the cooldown, then the next demand read becomes
// the half-open probe against the home shard, and a clean probe closes the
// ledger so home routing resumes — no wall clock, no background repair,
// just virtual time passing.
func TestFailoverLedgerRecovery(t *testing.T) {
	store, _ := cloudWorld(t, 1000, 9)
	h := newHAState(store, 2, 2, nil, pagestore.DefaultCostModel(), pagestore.RetryPolicy{}, 0)
	cooldown := failoverBreakerConfig().Cooldown

	t0 := 10 * time.Millisecond
	if r := h.routeDemand(0, t0); r.target != 0 || r.k != 0 || r.pre != 0 {
		t.Fatalf("healthy home not served in place: %+v", r)
	}

	// One outage discovery's worth of evidence trips the ledger immediately.
	h.evidence[0] = 3
	h.observe(t0)
	if !h.health[0].open || h.stats.FailoverTrips != 1 {
		t.Fatalf("ledger did not trip: open=%v trips=%d", h.health[0].open, h.stats.FailoverTrips)
	}

	during := t0 + cooldown/2
	if r := h.routeDemand(0, during); r.target != 1 || r.k != 1 {
		t.Fatalf("tripped home not failed over during cooldown: %+v", r)
	}
	if r := h.routeQuiet(0, during); r.target != 1 || r.k != 1 {
		t.Fatalf("background routing did not avoid the tripped home: %+v", r)
	}

	after := t0 + cooldown + time.Millisecond
	if r := h.routeDemand(0, after); r.target != 0 || r.k != 0 {
		t.Fatalf("post-cooldown demand read did not probe the home: %+v", r)
	}
	h.observe(after) // clean probe: zero evidence accumulated
	if h.health[0].open {
		t.Fatal("clean half-open probe did not close the ledger")
	}
	if h.stats.FailoverTrips != 1 {
		t.Fatalf("recovery changed the trip count: %d", h.stats.FailoverTrips)
	}
	if r := h.routeDemand(0, after+time.Millisecond); r.target != 0 || r.k != 0 {
		t.Fatalf("home routing did not resume after recovery: %+v", r)
	}
}

// TestShardedFailoverHammer is the CI -race workout for the HA fan-outs: a
// replicated sharded engine under the heaviest shard profile, run twice —
// the two runs must agree byte-for-byte (all failover, hedging and ledger
// decisions live on the single-coordinator virtual clock), the protection
// must actually engage, and the served result sets must hash identical to a
// fault-free unreplicated run: outages are invisible in results, visible
// only in time.
func TestShardedFailoverHammer(t *testing.T) {
	store, tree := cloudWorld(t, 3000, 17)
	if err := store.Relayout(pagestore.HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	defer store.Relayout(pagestore.InsertionLayout())
	seqs := []struct{ n int }{{10}, {12}, {10}}
	// Fault seed picked so the profile's outage windows actually intersect
	// this workload's virtual span on both a replicated and an unreplicated
	// fleet — the vacuity checks below keep the pin honest.
	plan, err := fault.ParseProfile("shard:flaky", 1)
	if err != nil {
		t.Fatal(err)
	}

	run := func(replicas int, hedge float64, faulted bool) ([]SequenceResult, HAStats, int64) {
		cfg := DefaultConfig()
		cfg.BatchedIO = true
		cfg.Replicas = replicas
		cfg.Hedge = hedge
		if faulted {
			cfg.Faults = fault.New(plan)
		}
		e := NewShardedEngine(store, tree, cfg, 8)
		defer e.Close()
		r := rand.New(rand.NewSource(29))
		var out []SequenceResult
		var lost int64
		for _, s := range seqs {
			seq := randomWalk(r, s.n, 20)
			res := e.RunSequence(seq, prefetch.NewStraightLine(20*20*20))
			lost += res.LostPages
			out = append(out, res)
		}
		return out, e.HAStats(), lost
	}

	ref, _, _ := run(1, 0, false)
	a, haA, lostA := run(2, 1.5, true)
	b, haB, lostB := run(2, 1.5, true)
	if !reflect.DeepEqual(a, b) || haA != haB || lostA != lostB {
		t.Fatal("replicated faulted runs diverged between identical engines")
	}
	if haA.FailedOverPages == 0 {
		t.Fatal("heaviest profile never failed over; hammer is vacuous")
	}
	if lostA != 0 {
		t.Fatalf("replicated run lost %d pages", lostA)
	}
	for i := range a {
		if a[i].ResultHash != ref[i].ResultHash {
			t.Fatalf("sequence %d: faulted replicated results differ from fault-free run", i)
		}
	}

	if _, _, lostNone := run(1, 0, true); lostNone == 0 {
		t.Fatal("unreplicated run lost nothing under shard:flaky; profile too gentle for the hammer")
	}
}

// TestShardedLedgerCondition pins when the per-shard health ledgers run:
// only with replication, hedging or shard faults configured. Two kinds of
// case:
//
//   - transient faults, no replication: read retries pile up on every
//     shard, but with nothing to fail over to the ledgers stay disabled, so
//     no trip ever skips a home's prefetch window and the HA ledger stays
//     zero on both the engine and the serve path;
//   - replication inert: a healthy R=2 engine (ledgers enabled, nothing to
//     feed them) is DeepEqual to the R=1 engine on every SequenceResult and
//     on the fleet disk stats — the engine-side twin of
//     TestServeShardedReplicationInert.
func TestShardedLedgerCondition(t *testing.T) {
	cloud, cloudTree := cloudWorld(t, 3000, 23)
	if err := cloud.Relayout(pagestore.HilbertLayout()); err != nil {
		t.Fatal(err)
	}
	defer cloud.Relayout(pagestore.InsertionLayout())
	line, lineTree := lineWorld(t, 4000)

	runEngine := func(replicas int, faulted bool) ([]SequenceResult, pagestore.DiskStats, HAStats) {
		cfg := DefaultConfig()
		cfg.BatchedIO = true
		cfg.Replicas = replicas
		if faulted {
			cfg.Faults = heavyInjector(t, 7)
		}
		e := NewShardedEngine(cloud, cloudTree, cfg, 4)
		defer e.Close()
		rng := rand.New(rand.NewSource(5))
		var out []SequenceResult
		for _, n := range []int{12, 14} {
			out = append(out, e.RunSequence(randomWalk(rng, n, 22), prefetch.NewStraightLine(22*22*22)))
		}
		return out, e.Stats(), e.HAStats()
	}
	runServe := func(replicas int, faulted bool) (pagestore.DiskStats, HAStats) {
		cfg := ServeConfig{
			Engine:           DefaultConfig(),
			Policy:           FairShare,
			InterferenceSeek: time.Millisecond,
			Shards:           4,
			Replicas:         replicas,
			Workers:          2,
		}
		cfg.Engine.BatchedIO = true
		if faulted {
			cfg.Faults = heavyInjector(t, 7)
		}
		res := Serve(line, lineTree, shardServeWorkloads(8), cfg)
		return res.Disk, res.HA
	}

	cases := []struct {
		name      string
		transient bool // run under the heavy page-fault profile
		run       func(t *testing.T) (pagestore.DiskStats, HAStats)
	}{
		{"engine/R=1/heavy", true, func(t *testing.T) (pagestore.DiskStats, HAStats) {
			_, disk, ha := runEngine(1, true)
			return disk, ha
		}},
		{"serve/R=1/heavy", true, func(t *testing.T) (pagestore.DiskStats, HAStats) {
			return runServe(1, true)
		}},
		{"engine/R=2/healthy", false, func(t *testing.T) (pagestore.DiskStats, HAStats) {
			want, wantDisk, _ := runEngine(1, false)
			got, disk, ha := runEngine(2, false)
			fanned := false
			for _, r := range got {
				for _, tr := range r.Queries {
					fanned = fanned || tr.Fanout > 1
				}
			}
			if !fanned {
				t.Fatal("no query fanned out across shards; the inert case is vacuous")
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("healthy Replicas=2 engine differs from unreplicated engine")
			}
			if disk != wantDisk {
				t.Errorf("healthy Replicas=2 disk stats differ:\n got %+v\nwant %+v", disk, wantDisk)
			}
			return disk, ha
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			disk, ha := tc.run(t)
			if ha != (HAStats{}) {
				t.Errorf("HA ledger touched: %+v", ha)
			}
			if tc.transient && disk.FaultRetries == 0 {
				t.Fatal("no injected read retries; the transient-fault case is vacuous")
			}
			if disk.PagesRead == 0 {
				t.Fatal("run read nothing")
			}
		})
	}
}
