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
	// sweepSeqs is the fixed set of model-building explorations every
	// cell replays.
	sweepSeqs = 32
	// sweepProfile is the shard fault profile every cell runs under.
	sweepProfile = "shard:outage"
	// sweepSLO is the per-query objective; a query missing result pages
	// violates it whatever its latency.
	sweepSLO = 7500 * time.Microsecond
	// sweepHedge is the hedged-prefetch threshold of the repl+hedge mode.
	sweepHedge = 1.5
)

// sweepCell is one what-if configuration of the ha1-shaped grid.
type sweepCell struct {
	shards   int
	mode     string
	replicas int
	hedge    float64
}

func (c sweepCell) String() string { return fmt.Sprintf("S=%d/%s", c.shards, c.mode) }

// sweepBench replays one fixed set of sequences through a fresh
// single-coordinator ShardedEngine per cell: S ∈ {2,4,8} × {none, repl,
// repl+hedge}, hilbert layout, simulated disk, shard outages.
type sweepBench struct {
	e      *env
	t      *tracer
	seqs   []workload.Sequence
	cells  []sweepCell
	inj    *fault.Injector
	scout  prefetch.Prefetcher
	tScout prefetch.Prefetcher
	tIndex engine.Index
}

func newSweep(e *env, seed int64, t *tracer) (*sweepBench, error) {
	mb := workload.Microbenchmarks()[2] // Model Building
	seqs, err := workload.GenerateMany(e.ds, mb.Params, sweepSeqs, subSeed(seed, 0))
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	plan, err := fault.ParseProfile(sweepProfile, subSeed(seed, 1))
	if err != nil {
		return nil, err
	}
	b := &sweepBench{e: e, t: t, seqs: seqs, inj: fault.New(plan),
		scout: core.New(e.store, e.ds.Adjacency, core.DefaultConfig())}
	for _, s := range []int{2, 4, 8} {
		b.cells = append(b.cells,
			sweepCell{shards: s, mode: "none", replicas: 1},
			sweepCell{shards: s, mode: "repl", replicas: 2},
			sweepCell{shards: s, mode: "repl+hedge", replicas: 2, hedge: sweepHedge})
	}
	if t != nil {
		b.tIndex = t.index(e.tree)
		b.tScout = t.prefetcher(b.scout, -1)
	}
	return b, nil
}

func (b *sweepBench) units() int { return len(b.cells) }

func (b *sweepBench) describe() map[string]any {
	cells := make([]string, len(b.cells))
	for i, c := range b.cells {
		cells[i] = c.String()
	}
	return map[string]any{
		"loop": "closed", "clients": 1, "coordinators": 1, "layout": "hilbert",
		"io": "batched simulated", "backend": "sim", "faults": sweepProfile,
		"sequences": len(b.seqs), "preset": workload.Microbenchmarks()[2].Name,
		"cells": cells, "replicas": 2, "hedge": sweepHedge, "prefetchers": "SCOUT",
		"slo_ms": sweepSLO.Seconds() * 1e3,
	}
}

func (b *sweepBench) run(i int, traced bool) outcome {
	p, index := b.scout, engine.Index(b.e.tree)
	if traced {
		p, index = b.tScout, b.tIndex
	}
	return b.runCell(b.cells[i], b.inj, index, p, traced)
}

// runCell runs every sequence on a fresh engine for the cell; inj nil runs
// it fault-free.
func (b *sweepBench) runCell(cell sweepCell, inj *fault.Injector, index engine.Index, p prefetch.Prefetcher, traced bool) outcome {
	cfg := engine.DefaultConfig()
	cfg.BatchedIO = true
	cfg.Replicas = cell.replicas
	cfg.Hedge = cell.hedge
	if inj != nil {
		cfg.Faults = inj
	}
	var done func()
	if traced {
		done = b.t.enter(spanCell, -1)
	}
	start := time.Now()
	eng := engine.NewShardedEngine(b.e.store, index, cfg, cell.shards)
	o := outcome{}
	f := newFold()
	rf := newFold()
	for j, seq := range b.seqs {
		var seqDone func()
		if traced {
			seqDone = b.t.enter(spanSequence, int32(j))
		}
		s0 := time.Now()
		r := eng.RunSequence(seq, p)
		o.seqWalls = append(o.seqWalls, time.Since(s0))
		if traced {
			seqDone()
		}
		o.addSequence(&f, r)
		o.addResponses(r, sweepSLO)
		rf.add(int64(r.ResultHash))
		o.lost += r.LostPages
	}
	o.ha = eng.HAStats()
	o.disk = eng.Stats()
	eng.Close()
	o.wall = time.Since(start)
	if traced {
		done()
	}
	o.failedOver = o.ha.FailedOverPages
	o.failedReads = o.lost + o.disk.TimedOutReads + o.disk.CorruptPages - o.disk.RepairedPages
	o.cache.Hits = o.hitAll
	o.cache.Misses = o.demandReads
	o.cache.Inserted = o.prefetched
	o.label = cell.String()
	foldDisk(&f, o.disk)
	foldHA(&f, o.ha)
	o.fp = uint64(f)
	o.resultFold = uint64(rf)
	return o
}

// verify checks that every replicated cell served exactly the fault-free
// result sets, re-runs two outage cells with their observations captured,
// and checks captured results against a brute-force scan: equal for the
// fault-free and replicated runs, a subset for the unreplicated outage.
func (b *sweepBench) verify(ref []outcome, c *checks) {
	var samples []sample
	clean := &capture{Prefetcher: b.scout, label: "sweep fault-free", every: 15, offset: 4, out: &samples}
	want := b.runCell(sweepCell{shards: 2, mode: "none", replicas: 1}, nil, b.e.tree, clean, false)
	if want.lost != 0 {
		c.failf(want.queries, "sweep fault-free reference lost %d pages", want.lost)
	}
	for i, cell := range b.cells {
		if cell.replicas < 2 {
			continue
		}
		if ref[i].resultFold != want.resultFold {
			c.failf(ref[i].queries, "sweep %s: result-hash fold %x != fault-free %x", cell, ref[i].resultFold, want.resultFold)
		}
		if ref[i].lost != 0 {
			c.failf(ref[i].queries, "sweep %s: replicated cell lost %d pages", cell, ref[i].lost)
		}
	}
	for i, cell := range b.cells {
		if cell.shards != 8 || cell.mode == "repl" {
			continue
		}
		p := &capture{Prefetcher: b.scout, label: "sweep " + cell.String(), every: 15, offset: 9,
			subset: cell.replicas < 2, out: &samples}
		if o := b.runCell(cell, b.inj, b.e.tree, p, false); o.fp != ref[i].fp {
			c.failf(o.queries, "sweep %s: capture rerun fingerprint %x != %x", cell, o.fp, ref[i].fp)
		}
	}
	bruteForce(b.e.store, samples, c)
}
