package main

import (
	"time"
)

// layerTimes sums span time per layer over the traced cycles.
type layerTimes struct {
	lookup, core, observe int64 // busy: summed span durations
	engineSelf            int64 // sequence (or plan) spans minus their children's union
	sequence              int64 // summed sequence spans
	children              int64 // summed children of sequence spans
	plan, commit, round   int64
	cell                  int64
	cells                 int
}

func spanTimes(t *tracer, workload string) layerTimes {
	spans := t.rec.snapshot()
	self := selfTimes(spans)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var lt layerTimes
	top := spanSequence
	if workload == "serve" {
		top = spanPlan
	}
	for _, s := range spans {
		switch s.Name {
		case spanLookup:
			lt.lookup += s.dur()
		case spanObserve:
			lt.core += s.dur()
			lt.observe += s.dur()
		case spanPlanPF:
			lt.core += s.dur()
		case spanPlan:
			lt.plan += s.dur()
		case spanCommit:
			lt.commit += s.dur()
		case spanRound:
			lt.round += s.dur()
		case spanCell:
			lt.cell += s.dur()
			lt.cells++
		}
		if s.Name == top {
			lt.engineSelf += self[s.ID]
			if s.Name == spanSequence {
				lt.sequence += s.dur()
			}
		}
		if p, ok := byID[s.Parent]; ok && p.Name == spanSequence {
			lt.children += s.dur()
		}
	}
	return lt
}

// checkDecomposition checks that the traced layers account for the spans
// around them: on walk and sweep the R-tree, core and engine self times
// add up to the sequence spans; on serve plan plus commit is the round.
func checkDecomposition(t *tracer, workload string, c *checks) {
	lt := spanTimes(t, workload)
	switch workload {
	case "serve":
		if lt.plan+lt.commit != lt.round {
			c.failf(0, "serve trace: plan %d + commit %d ns != round %d ns", lt.plan, lt.commit, lt.round)
		}
	default:
		if lt.engineSelf+lt.children != lt.sequence {
			c.failf(0, "%s trace: engine self %d + children %d ns != sequences %d ns",
				workload, lt.engineSelf, lt.children, lt.sequence)
		}
	}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// perLayer computes the per-layer metrics of a traced run. Span times are
// per cycle; counts come from the first cycle, so they repeat exactly.
func perLayer(workload string, times []setupTimes, m *measurement, t *tracer) []metric {
	med := func(get func(setupTimes) time.Duration) float64 {
		var ds []time.Duration
		for _, s := range times {
			ds = append(ds, get(s))
		}
		return middle(ds).Seconds()
	}
	cycles := float64(len(m.traced))
	lt := spanTimes(t, workload)
	pc := t.counters()
	cyc := float64(1) / cycles
	ref := sum(m.plain[0])
	all := sum(flatten(m.plain))
	tr := sum(flatten(m.traced))
	lookups, pages := t.lookups.Load(), t.pages.Load()
	// Decorator counters accumulate over every traced cycle: divide by the
	// cycle count to get one cycle's exact count.
	per := func(x int64) float64 { return float64(x) * cyc }
	obs := per(pc.observes)
	d := ref.disk
	return []metric{
		{"dataset.generate_s", med(func(s setupTimes) time.Duration { return s.generate }), "s", len(times)},
		{"rtree.bulkload_s", med(func(s setupTimes) time.Duration { return s.bulkload }), "s", len(times)},
		{"flatindex.build_s", med(func(s setupTimes) time.Duration { return s.flat }), "s", len(times)},
		{"pagestore.relayout_s", med(func(s setupTimes) time.Duration { return s.relayout }), "s", len(times)},
		{"pagestore.filestore_create_s", med(func(s setupTimes) time.Duration { return s.filestore }), "s", len(times)},

		{"rtree.busy_ms", ms(lt.lookup) * cyc, "ms", int(per(lookups))},
		{"rtree.lookups_per_query", ratio(per(lookups), obs), "count", int(obs)},
		{"rtree.ladder_lookups_per_query", ratio(per(lookups)-obs, obs), "count", int(obs)},
		{"rtree.pages_per_lookup", ratio(float64(pages), float64(lookups)), "count", int(per(lookups))},
		{"rtree.ns_per_page", ratio(float64(lt.lookup), float64(pages)), "ns", int(per(pages))},

		{"engine.self_ms", ms(lt.engineSelf) * cyc, "ms", int(obs)},
		{"engine.objects_examined_per_query", ratio(per(pc.examined), obs), "count", int(obs)},
		{"engine.refine_selectivity", ratio(float64(pc.results), float64(pc.examined)), "ratio", int(per(pc.examined))},

		{"core.busy_ms", ms(lt.core) * cyc, "ms", int(obs)},
		{"core.us_per_observe", ratio(float64(lt.observe)/1e3, float64(pc.observes)), "us", int(obs)},
		{"core.vertices_per_query", ratio(per(pc.vertices), obs), "count", int(obs)},
		{"core.edges_per_query", ratio(per(pc.edges), obs), "count", int(obs)},
		{"core.candidates_per_query", ratio(per(pc.cands), obs), "count", int(obs)},
		{"core.delta_share", ratio(per(pc.deltas), obs), "ratio", int(obs)},
		{"core.traversal_pages_per_query", ratio(per(pc.gapPages), obs), "count", int(obs)},
		{"core.model_to_wall", ratio(float64(pc.modeled), float64(lt.core)), "ratio", int(obs)},

		{"prefetch.requests_per_plan", ratio(per(pc.requests), per(pc.plans)), "count", int(per(pc.plans))},
		{"prefetch.pages_prefetched", float64(ref.prefetched), "count", ref.queries},
		{"prefetch.useful_ratio", ratio(float64(ref.hitAll), float64(ref.prefetched)), "ratio", int(ref.prefetched)},

		{"cache.hits", float64(ref.cache.Hits), "count", ref.queries},
		{"cache.misses", float64(ref.cache.Misses), "count", ref.queries},
		{"cache.evictions", float64(ref.cache.Evictions), "count", ref.queries},
		{"cache.inserted", float64(ref.cache.Inserted), "count", ref.queries},

		{"pagestore.pages_read", float64(d.PagesRead), "count", ref.queries},
		{"pagestore.seeks", float64(d.Seeks), "count", ref.queries},
		{"pagestore.bridged_pages", float64(d.BridgedPages), "count", ref.queries},
		{"pagestore.bridged_ratio", ratio(float64(d.BridgedPages), float64(d.PagesRead+d.BridgedPages)), "ratio", int(d.PagesRead + d.BridgedPages)},
		{"pagestore.sim_io_s", d.SimulatedIO.Seconds(), "s", ref.queries},
		{"pagestore.wall_read_ms", all.disk.WallRead.Seconds() * 1e3 / float64(len(m.plain)), "ms", len(m.plain)},
		{"pagestore.sim_to_wall", ratio(float64(all.disk.SimulatedIO), float64(all.disk.WallRead)), "ratio", len(m.plain)},
		{"pagestore.scrubbed_pages", float64(d.ScrubbedPages), "count", ref.queries},
		{"pagestore.fault_retries", float64(d.FaultRetries), "count", ref.queries},
		{"pagestore.timed_out_reads", float64(d.TimedOutReads), "count", ref.queries},
		{"pagestore.replica_pages", float64(d.ReplicaPages), "count", ref.queries},

		{"engine.plan_ms", ms(lt.plan) * cyc, "ms", len(m.traced)},
		{"engine.commit_ms", ms(lt.commit) * cyc, "ms", len(m.traced)},
		{"engine.commit_us_per_query", ratio(float64(lt.commit)/1e3, float64(tr.queries)), "us", tr.queries},
		{"engine.interference_seeks", float64(ref.interferenceSeeks), "count", ref.queries},
		{"engine.shed_prefetches", float64(ref.shed), "count", ref.queries},

		{"engine.cell_ms", ratio(ms(lt.cell), float64(lt.cells)), "ms", lt.cells},
		{"engine.fanout_mean", ratio(float64(ref.fanout), float64(ref.queries)), "count", ref.queries},
		{"engine.routed_pages", float64(ref.routed), "count", ref.queries},
		{"engine.failed_over_pages", float64(ref.failedOver), "count", ref.queries},
		{"engine.lost_pages", float64(ref.lost), "count", ref.queries},
		{"engine.hedge_windows", float64(ref.ha.HedgedWindows), "count", ref.queries},
		{"engine.hedge_win_ratio", ratio(float64(ref.ha.HedgeWins), float64(ref.ha.HedgedWindows)), "ratio", int(ref.ha.HedgedWindows)},
		{"engine.failover_trips", float64(ref.ha.FailoverTrips), "count", ref.queries},

		{"failed_read_share", ratio(float64(ref.failedReads), float64(ref.demandReads)), "ratio", int(ref.demandReads)},
		{"trace_overhead", ratio(float64(sumWall(m.traced[1:])), float64(sumWall(m.plain[1:]))), "ratio", len(m.traced) - 1},
	}
}

// sumWall is the units' wall time over the cycles.
func sumWall(cycles [][]outcome) time.Duration {
	var w time.Duration
	for _, c := range cycles {
		for _, o := range c {
			w += o.wall
		}
	}
	return w
}
