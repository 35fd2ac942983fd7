package main

import (
	"fmt"
	"time"

	"scout/internal/core"
	"scout/internal/engine"
	"scout/internal/prefetch"
	"scout/internal/workload"
)

const (
	// walkSeqs is the number of explorations per Figure 10 preset.
	walkSeqs = 20
	// walkSLO is the single scientist's per-query response objective.
	walkSLO = 50 * time.Millisecond
)

// walkBench is the paper's own setting: one scientist at a time exploring
// the tissue along Figure 10's seven presets, one Engine.RunSequence per
// exploration. SCOUT runs the no-gap presets and SCOUT-OPT over FLAT the
// gap presets, on the insertion layout with per-page simulated I/O.
type walkBench struct {
	e    *env
	t    *tracer
	seqs []walkSeq

	eng, tEng  *engine.Engine
	scout, opt prefetch.Prefetcher
	tScout     prefetch.Prefetcher
	tOpt       prefetch.Prefetcher
}

type walkSeq struct {
	preset string
	gap    bool
	seq    workload.Sequence
}

func newWalk(e *env, seed int64, t *tracer) (*walkBench, error) {
	b := &walkBench{e: e, t: t}
	presets := workload.Microbenchmarks()
	per := make([][]workload.Sequence, len(presets))
	for i, mb := range presets {
		seqs, err := workload.GenerateMany(e.ds, mb.Params, walkSeqs, subSeed(seed, i))
		if err != nil {
			return nil, fmt.Errorf("walk %s: %w", mb.Name, err)
		}
		per[i] = seqs
	}
	// Interleave the presets so every prefix of the cycle mixes them.
	for j := 0; j < walkSeqs; j++ {
		for i, mb := range presets {
			b.seqs = append(b.seqs, walkSeq{preset: mb.Name, gap: mb.Params.Gap > 0, seq: per[i][j]})
		}
	}
	cfg := engine.DefaultConfig()
	b.eng = engine.New(e.store, e.tree, cfg)
	b.scout = core.New(e.store, e.ds.Adjacency, core.DefaultConfig())
	b.opt = core.NewOpt(e.flat, e.ds.Adjacency, core.DefaultConfig())
	if t != nil {
		b.tEng = engine.New(e.store, t.index(e.tree), cfg)
		// Plain and traced runs alternate, never overlap: the decorators
		// wrap the same prefetchers, which every run Resets.
		b.tScout = t.prefetcher(b.scout, -1)
		b.tOpt = t.prefetcher(b.opt, -1)
	}
	return b, nil
}

func (b *walkBench) units() int { return len(b.seqs) }

func (b *walkBench) describe() map[string]any {
	return map[string]any{
		"loop": "closed", "clients": 1, "layout": "insertion", "io": "per-page simulated",
		"backend": "sim", "faults": "off", "sequences": len(b.seqs),
		"sequences_per_preset": walkSeqs, "presets": len(workload.Microbenchmarks()),
		"prefetchers": "SCOUT (no-gap presets), SCOUT-OPT over FLAT (gap presets)",
		"slo_ms":      walkSLO.Seconds() * 1e3,
	}
}

func (b *walkBench) prefetcher(s walkSeq, traced bool) prefetch.Prefetcher {
	switch {
	case traced && s.gap:
		return b.tOpt
	case traced:
		return b.tScout
	case s.gap:
		return b.opt
	}
	return b.scout
}

func (b *walkBench) run(i int, traced bool) outcome {
	return b.runWith(i, traced, b.prefetcher(b.seqs[i], traced))
}

func (b *walkBench) runWith(i int, traced bool, p prefetch.Prefetcher) outcome {
	eng := b.eng
	if traced {
		eng = b.tEng
	}
	d0, c0 := eng.Disk().Stats(), eng.Cache().Stats()
	var done func()
	if traced {
		done = b.t.enter(spanSequence, int32(i))
	}
	start := time.Now()
	r := eng.RunSequence(b.seqs[i].seq, p)
	wall := time.Since(start)
	if traced {
		done()
	}

	o := outcome{wall: wall, seqWalls: []time.Duration{wall}}
	f := newFold()
	o.addSequence(&f, r)
	o.addResponses(r, walkSLO)
	o.disk = diskDelta(eng.Disk().Stats(), d0)
	c1 := eng.Cache().Stats()
	o.cache.Hits = c1.Hits - c0.Hits
	o.cache.Misses = c1.Misses - c0.Misses
	o.cache.Inserted = c1.Inserted - c0.Inserted
	o.cache.Evictions = c1.Evictions - c0.Evictions
	o.failedReads = o.disk.TimedOutReads + o.disk.CorruptPages - o.disk.RepairedPages
	foldDisk(&f, o.disk)
	f.add(o.cache.Hits, o.cache.Misses, o.cache.Inserted, o.cache.Evictions)
	o.fp = uint64(f)
	return o
}

// verify re-runs every tenth exploration with its observations captured,
// checks the rerun reproduces the first cycle, and checks the captured
// results against a brute-force scan.
func (b *walkBench) verify(ref []outcome, c *checks) {
	var samples []sample
	for i := 0; i < len(b.seqs); i += 10 {
		s := b.seqs[i]
		p := &capture{Prefetcher: b.prefetcher(s, false), label: fmt.Sprintf("walk %s seq %d", s.preset, i),
			every: 20, offset: 3 + i%7, out: &samples}
		if o := b.runWith(i, false, p); o.fp != ref[i].fp {
			c.failf(o.queries, "walk seq %d: capture rerun fingerprint %x != %x", i, o.fp, ref[i].fp)
		}
	}
	bruteForce(b.e.store, samples, c)
}

// subSeed derives an independent stream seed for part i of a workload.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}
