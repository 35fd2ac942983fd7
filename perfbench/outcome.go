package main

import (
	"time"

	"scout/internal/cache"
	"scout/internal/engine"
	"scout/internal/pagestore"
)

// bench is one workload bound to a built set-up. A cycle runs every unit
// once: a walk sequence, a sweep cell, or a serve round.
type bench interface {
	units() int
	// run executes unit i through the plain entry points, or through the
	// timing decorators when traced.
	run(i int, traced bool) outcome
	// verify runs the workload's own correctness checks against the
	// first cycle's outcomes. It is not timed.
	verify(ref []outcome, c *checks)
	// describe returns the workload's part of the run configuration.
	describe() map[string]any
}

// outcome is what one unit produced.
type outcome struct {
	queries  int
	wall     time.Duration   // wall time inside the engine's entry points
	seqWalls []time.Duration // one exploration's compute time each
	// fp fingerprints every virtual-clock output of the unit; repeats,
	// traced runs and worker counts must reproduce it exactly.
	fp uint64
	// resultFold folds the sharded engine's per-sequence ResultHash.
	resultFold uint64

	// Virtual clock.
	hitPages, totalPages int64
	cold, residual       time.Duration
	responses            []time.Duration
	violations, counted  int64
	// demandReads counts demand page reads attempted (result pages not
	// served from the cache); failedReads those lost, timed out, or
	// corrupt and unrepaired.
	demandReads, failedReads int64

	// Public counters.
	disk                     pagestore.DiskStats
	cache                    cache.Stats
	prefetched, hitAll       int64
	fanout                   int64
	routed, failedOver, lost int64
	ha                       engine.HAStats
	interferenceSeeks, shed  int64
	plan, commit             time.Duration
	// label names a sweep cell in the printed lost-page pins.
	label string
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// addSequence folds one sequence result into the fingerprint and the
// page counts.
func (o *outcome) addSequence(f *fold, r engine.SequenceResult) {
	f.add(r.HitPages, r.TotalPages, int64(r.Cold), int64(r.Residual),
		int64(r.GraphBuild), int64(r.Prediction), r.DeltaBuilds, int64(r.ResultHash), r.LostPages)
	for _, q := range r.Queries {
		f.add(int64(q.Seq), int64(q.ResultPages), int64(q.HitPages), int64(q.Cold),
			int64(q.Residual), int64(q.Window), int64(q.GraphBuild), b2i(q.GraphDelta),
			int64(q.Prediction), int64(q.PrefetchIO), int64(q.Prefetched), int64(q.Fanout),
			int64(q.RoutedPages), int64(q.FailedOverPages), int64(q.LostPages))
		o.queries++
		o.demandReads += int64(q.ResultPages - q.HitPages)
		o.prefetched += int64(q.Prefetched)
		o.hitAll += int64(q.HitPages)
		o.fanout += int64(q.Fanout)
		o.routed += int64(q.RoutedPages)
	}
	o.hitPages += r.HitPages
	o.totalPages += r.TotalPages
	o.cold += r.Cold
	o.residual += r.Residual
}

// addResponses records the counted queries' residual responses of a
// single-session run. A query missing result pages failed: it violates the
// SLO whatever its latency, and its response — the read deadline it waited
// out — stays out of the latency samples.
func (o *outcome) addResponses(r engine.SequenceResult, slo time.Duration) {
	for _, q := range r.Queries {
		if q.Seq == 0 { // SkipFirstQuery: no prediction can exist yet
			continue
		}
		o.counted++
		if q.LostPages > 0 {
			o.violations++
			continue
		}
		o.responses = append(o.responses, q.Residual)
		if q.Residual > slo {
			o.violations++
		}
	}
}

// foldDisk folds every virtual-clock disk counter (WallRead is wall time
// and stays out).
func foldDisk(f *fold, d pagestore.DiskStats) {
	f.add(d.PagesRead, d.Seeks, int64(d.SimulatedIO), d.BridgedPages, d.FaultRetries,
		d.TimedOutReads, int64(d.FaultDelay), d.ReplicaPages, d.CorruptPages,
		d.RepairedPages, int64(d.CorruptDelay), d.ScrubbedPages, int64(d.ScrubIO))
}

func foldHA(f *fold, h engine.HAStats) {
	f.add(h.FailedOverBatches, h.FailedOverPages, h.OutageProbes, int64(h.ProbeDelay),
		h.LostBatches, h.LostPages, int64(h.LostDelay), h.BrownedBatches,
		int64(h.BrownoutDelay), h.HedgedWindows, h.HedgeWins, h.FailoverTrips)
}

// diskDelta returns the counters accumulated between two snapshots.
func diskDelta(after, before pagestore.DiskStats) pagestore.DiskStats {
	return pagestore.DiskStats{
		PagesRead:     after.PagesRead - before.PagesRead,
		Seeks:         after.Seeks - before.Seeks,
		SimulatedIO:   after.SimulatedIO - before.SimulatedIO,
		BridgedPages:  after.BridgedPages - before.BridgedPages,
		FaultRetries:  after.FaultRetries - before.FaultRetries,
		TimedOutReads: after.TimedOutReads - before.TimedOutReads,
		FaultDelay:    after.FaultDelay - before.FaultDelay,
		ReplicaPages:  after.ReplicaPages - before.ReplicaPages,
		CorruptPages:  after.CorruptPages - before.CorruptPages,
		RepairedPages: after.RepairedPages - before.RepairedPages,
		CorruptDelay:  after.CorruptDelay - before.CorruptDelay,
		ScrubbedPages: after.ScrubbedPages - before.ScrubbedPages,
		ScrubIO:       after.ScrubIO - before.ScrubIO,
		WallRead:      after.WallRead - before.WallRead,
	}
}

// sum merges a cycle's outcomes.
func sum(os []outcome) outcome {
	var t outcome
	for _, o := range os {
		t.queries += o.queries
		t.wall += o.wall
		t.seqWalls = append(t.seqWalls, o.seqWalls...)
		t.hitPages += o.hitPages
		t.totalPages += o.totalPages
		t.cold += o.cold
		t.residual += o.residual
		t.responses = append(t.responses, o.responses...)
		t.violations += o.violations
		t.counted += o.counted
		t.demandReads += o.demandReads
		t.failedReads += o.failedReads
		t.disk.Add(o.disk)
		t.cache.Hits += o.cache.Hits
		t.cache.Misses += o.cache.Misses
		t.cache.Inserted += o.cache.Inserted
		t.cache.Evictions += o.cache.Evictions
		t.prefetched += o.prefetched
		t.hitAll += o.hitAll
		t.fanout += o.fanout
		t.routed += o.routed
		t.failedOver += o.failedOver
		t.lost += o.lost
		t.ha.Add(o.ha)
		t.interferenceSeeks += o.interferenceSeeks
		t.shed += o.shed
		t.plan += o.plan
		t.commit += o.commit
	}
	return t
}
