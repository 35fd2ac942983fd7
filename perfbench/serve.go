package main

import (
	"fmt"
	"time"

	"scout/internal/core"
	"scout/internal/engine"
	"scout/internal/fault"
	"scout/internal/prefetch"
	"scout/internal/workload"
)

const (
	serveSessions = 64
	// serveSeqs is each session's number of explorations per round.
	serveSeqs     = 2
	serveShards   = 8
	serveReplicas = 2
	serveProfile  = "shard:flaky"
	// serveSLO is the fixed per-query objective of every session.
	serveSLO = 30 * time.Millisecond
	// serveInterference is the per-contender seek penalty on the shared
	// disks (a tenth of a seek, as in the mu experiments).
	serveInterference = 500 * time.Microsecond
	// serveScrubPages caps the background scrub's step per window.
	serveScrubPages = 4
)

// serveBench is many scientists at once: 64 closed-loop sessions, each two
// explorations along a no-gap Figure 10 preset, planned by PlanSessions on
// at most nproc workers and committed by SessionPlans.Serve against the
// shared sharded cache, 8 replicated Hilbert-range shards under flaky
// shard faults, the fair arbiter, and the checksummed file backend. A
// cycle is one round: plan, then commit.
type serveBench struct {
	e       *env
	t       *tracer
	cfg     engine.ServeConfig
	workers int
	seqs    [][]workload.Sequence
	plain   []prefetch.Prefetcher
	clocks  []*stopwatch
	tClocks []*stopwatch
	tIndex  engine.Index
}

func newServe(e *env, seed int64, t *tracer, workers int) (*serveBench, error) {
	presets := workload.NoGapMicrobenchmarks()
	per := make([][]workload.Sequence, len(presets))
	for i, mb := range presets {
		n := serveSeqs * ((serveSessions - i + len(presets) - 1) / len(presets))
		seqs, err := workload.GenerateMany(e.ds, mb.Params, n, subSeed(seed, i))
		if err != nil {
			return nil, fmt.Errorf("serve %s: %w", mb.Name, err)
		}
		per[i] = seqs
	}
	plan, err := fault.ParseProfile(serveProfile, subSeed(seed, len(presets)))
	if err != nil {
		return nil, err
	}
	cfg := engine.DefaultConfig()
	cfg.BatchedIO = true
	cfg.Backing = e.fs
	cfg.ScrubPages = serveScrubPages
	b := &serveBench{e: e, t: t, workers: workers, cfg: engine.ServeConfig{
		Engine:           cfg,
		Policy:           engine.FairShare,
		InterferenceSeek: serveInterference,
		Workers:          workers,
		Faults:           fault.New(plan),
		Breaker:          engine.DefaultBreakerConfig(),
		SLO:              serveSLO,
		Shards:           serveShards,
		Replicas:         serveReplicas,
	}}
	if t != nil {
		b.tIndex = t.index(e.tree)
	}
	for i := 0; i < serveSessions; i++ {
		k := i % len(presets)
		j := serveSeqs * (i / len(presets))
		b.seqs = append(b.seqs, per[k][j:j+serveSeqs])
		p := core.New(e.store, e.ds.Adjacency, core.DefaultConfig())
		b.plain = append(b.plain, p)
		b.clocks = append(b.clocks, &stopwatch{Prefetcher: p})
		if t != nil {
			b.tClocks = append(b.tClocks, &stopwatch{Prefetcher: t.prefetcher(p, int32(i))})
		}
	}
	return b, nil
}

func (b *serveBench) units() int { return 1 }

func (b *serveBench) describe() map[string]any {
	return map[string]any{
		"loop": "closed", "clients": serveSessions, "plan_workers": b.workers,
		"layout": "hilbert", "io": "batched, real pread per simulated read",
		"backend": "file", "checksum": "repair", "scrub_pages": serveScrubPages,
		"faults": serveProfile, "sessions": serveSessions, "sequences_per_session": serveSeqs, "shards": serveShards,
		"replicas": serveReplicas, "policy": "fair", "breaker": "default",
		"interference_ms": serveInterference.Seconds() * 1e3,
		"presets":         "no-gap Figure 10 presets, round-robin", "prefetchers": "SCOUT",
		"slo_ms": serveSLO.Seconds() * 1e3,
	}
}

func (b *serveBench) workloads(ps []prefetch.Prefetcher) []engine.SessionWorkload {
	ws := make([]engine.SessionWorkload, len(ps))
	for i, p := range ps {
		ws[i] = engine.SessionWorkload{Sequences: b.seqs[i], Prefetcher: p}
	}
	return ws
}

func (b *serveBench) run(_ int, traced bool) outcome {
	clocks := b.clocks
	var index engine.Index = b.e.tree
	if traced {
		clocks, index = b.tClocks, b.tIndex
	}
	ps := make([]prefetch.Prefetcher, len(clocks))
	for i, c := range clocks {
		ps[i] = c
	}
	ws := b.workloads(ps)
	var o outcome
	var res engine.ServeResult
	if traced {
		// The round is exactly its two phases: they share timestamps.
		t := b.t
		roundID, planID, commitID := t.rec.newID(), t.rec.newID(), t.rec.newID()
		parent := t.parent
		t0 := t.rec.now()
		t.parent = planID
		plans := engine.PlanSessions(b.e.store, index, ws, b.cfg.Engine.Cost, b.workers)
		t1 := t.rec.now()
		t.parent = commitID
		res = plans.Serve(b.cfg)
		t2 := t.rec.now()
		t.parent = parent
		t.rec.add(span{ID: roundID, Parent: parent, Seq: -1, Name: spanRound, Start: t0, End: t2})
		t.rec.add(span{ID: planID, Parent: roundID, Seq: -1, Name: spanPlan, Start: t0, End: t1})
		t.rec.add(span{ID: commitID, Parent: roundID, Seq: -1, Name: spanCommit, Start: t1, End: t2})
		o.plan, o.commit = time.Duration(t1-t0), time.Duration(t2-t1)
	} else {
		t0 := time.Now()
		plans := engine.PlanSessions(b.e.store, index, ws, b.cfg.Engine.Cost, b.workers)
		t1 := time.Now()
		res = plans.Serve(b.cfg)
		o.plan, o.commit = t1.Sub(t0), time.Since(t1)
	}
	o.wall = o.plan + o.commit
	for _, c := range clocks {
		o.seqWalls = append(o.seqWalls, c.take()...)
	}
	o.fp = b.record(&o, res)
	return o
}

// record fills the outcome's counts from the public ServeResult and
// returns the fingerprint of the round's virtual-clock outputs.
func (b *serveBench) record(o *outcome, res engine.ServeResult) uint64 {
	f := newFold()
	for _, s := range res.Sessions {
		for _, r := range s.Sequences {
			o.addSequence(&f, r)
		}
		for _, d := range s.Responses {
			f.add(int64(d))
		}
		f.add(int64(s.Completed), b2i(s.Rejected), b2i(s.Degraded), s.FaultRetries,
			s.TimedOutReads, s.ShardStalls, s.CorruptPages, s.RepairedPages,
			s.BreakerTrips, s.ShedPrefetches, s.SLOViolations)
	}
	o.responses = res.Responses()
	o.counted = res.CountedQueries()
	o.violations = res.SLOViolations
	o.disk = res.Disk
	o.cache = res.Cache.Stats
	o.ha = res.HA
	o.routed = res.RoutedPages
	o.failedOver = res.HA.FailedOverPages
	o.lost = res.HA.LostPages
	o.interferenceSeeks = res.InterferenceSeeks
	o.shed = res.ShedPrefetches
	o.failedReads = o.lost + o.disk.TimedOutReads + o.disk.CorruptPages - o.disk.RepairedPages
	foldDisk(&f, o.disk)
	foldHA(&f, o.ha)
	f.add(res.InterferenceSeeks, int64(res.Interference), int64(res.Makespan), res.Queries,
		res.ShardStalls, int64(res.StallDelay), res.StarvedWindows, res.BreakerTrips,
		res.ShedPrefetches, res.SLOViolations, res.RoutedPages, int64(res.RouteCharge),
		o.cache.Hits, o.cache.Misses, o.cache.Inserted, o.cache.Evictions)
	return uint64(f)
}

// verify plans the round again on one worker, with every eighth session's
// observations captured, and checks that the commit reproduces the first
// round exactly and that the captured results match a brute-force scan.
func (b *serveBench) verify(ref []outcome, c *checks) {
	var samples []sample
	ps := make([]prefetch.Prefetcher, len(b.plain))
	for i, p := range b.plain {
		ps[i] = p
		if i%8 == 0 {
			ps[i] = &capture{Prefetcher: p, label: fmt.Sprintf("serve session %d", i),
				every: 10, offset: 2 + i%5, out: &samples}
		}
	}
	res := engine.PlanSessions(b.e.store, b.e.tree, b.workloads(ps), b.cfg.Engine.Cost, 1).Serve(b.cfg)
	var o outcome
	if fp := b.record(&o, res); fp != ref[0].fp {
		c.failf(o.queries, "serve: workers=1 fingerprint %x != workers=%d %x", fp, b.workers, ref[0].fp)
	}
	bruteForce(b.e.store, samples, c)
}
