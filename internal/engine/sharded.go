package engine

import (
	"sort"
	"time"

	"scout/internal/cache"
	"scout/internal/fault"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/workload"
)

// engineShard is one shard worker's private state: its slice of the prefetch
// cache, a disk with its own head and seek ledger, and scratch. Only the
// shard's worker goroutine touches it during a fan-out.
type engineShard struct {
	disk  *pagestore.Disk
	cache *cache.Sharded
	miss  []pagestore.PageID
	batch []pagestore.PageID
}

// demandOut is shard i's result slot for one demand fan-out.
type demandOut struct {
	cold     time.Duration
	missCost time.Duration
	hits     int
	miss     int
}

// prefetchOut is shard i's result slot for one prefetch-window fan-out.
type prefetchOut struct {
	spent time.Duration
	n     int
}

// ShardedEngine is the scale-out variant of Engine: the page space is
// partitioned into S contiguous Hilbert ranges of the layout key
// (pagestore.Partition), each owned by a shard worker with its own cache
// slice, disk head and seek state. A stateless Router splits every demand
// set and prefetch prediction set by range; per-shard elevator batches run
// genuinely in parallel on the shard workers, and the merged service time
// is the slowest shard (parallel I/O) plus a per-page routing charge for
// pages shipped from non-home shards. Every storage read is routed through
// the failover layer (haState, DESIGN.md §13), which with one replica, no
// hedging and no shard faults routes every home to itself. The plan phase
// (prefetcher observe + plan) is untouched, and the commit arithmetic is
// deterministic, so output is byte-identical run-to-run; with S=1 every
// split is a no-op and the result is bit-exact with the unsharded
// BatchedIO engine (TestShardedSingleShardBitExact).
//
// A ShardedEngine is a single-coordinator object: RunSequence must not be
// called concurrently on the same instance. Use Clone for parallel runs.
type ShardedEngine struct {
	store  *pagestore.Store
	index  Index
	cfg    Config
	shards int
	router Router
	set    *ShardSet[*engineShard]

	// Coordinator-owned fan-out scratch.
	parts    [][]pagestore.PageID
	pparts   [][]pagestore.PageID
	demand   []demandOut
	prefetch []prefetchOut
	counts   []int
	batchBuf []pagestore.PageID
	served   []pagestore.PageID // demandRead's served set when pages were lost

	// look refines each query one query ahead (lookahead.go).
	look lookahead

	// Failover routing for every storage read (DESIGN.md §13).
	ha        *haState
	vclock    time.Duration // virtual serving clock: sum of Residual+Window over all queries run
	prefHedge []prefetchOut // hedge result slots for the prefetch fan-out
	estBuf    []time.Duration
}

// NewShardedEngine builds an S-shard engine over the store's current
// layout. The total cache capacity (same sizing rule as the unsharded
// engine) is split across shards ±1 page; each shard's cache is a
// cache.Sharded with a single internal shard, i.e. an exact LRU over that
// shard's slice, which is what makes S=1 cache behavior identical to the
// unsharded engine's. Reads always take the batched elevator path —
// Config.BatchedIO is implied. Close must be called to stop the workers.
func NewShardedEngine(store *pagestore.Store, index Index, cfg Config, shards int) *ShardedEngine {
	if cfg.Cost == (pagestore.CostModel{}) {
		cfg.Cost = pagestore.DefaultCostModel()
	}
	if shards < 1 {
		shards = 1
	}
	inj, _ := cfg.Faults.(*fault.Injector)
	ha := newHAState(store, shards, cfg.Replicas, inj, cfg.Cost, cfg.Retry, cfg.Hedge)
	capacity := cacheCapacity(cfg, store)
	base, extra := capacity/shards, capacity%shards
	state := make([]*engineShard, shards)
	for i := range state {
		sc := base
		if i < extra {
			sc++
		}
		sh := &engineShard{
			disk:  pagestore.NewDisk(store, cfg.Cost),
			cache: cache.NewSharded(sc, 1),
		}
		if cfg.Faults != nil {
			sh.disk.SetFaults(cfg.Faults, cfg.Retry)
		}
		if cfg.Backing != nil {
			sh.disk.SetBacking(cfg.Backing)
		}
		state[i] = sh
	}
	return &ShardedEngine{
		store:     store,
		index:     index,
		cfg:       cfg,
		shards:    shards,
		router:    NewRouter(store, ha.part, cfg.Cost),
		set:       NewShardSet(state),
		demand:    make([]demandOut, shards),
		prefetch:  make([]prefetchOut, shards),
		counts:    make([]int, shards),
		look:      lookahead{store: store},
		ha:        ha,
		prefHedge: make([]prefetchOut, shards),
	}
}

// HAStats returns the accumulated high-availability ledger (zero value when
// the engine runs without replication, hedging or shard faults).
func (e *ShardedEngine) HAStats() HAStats { return e.ha.stats }

// Shards returns the shard count.
func (e *ShardedEngine) Shards() int { return e.shards }

// Router exposes the engine's router (for tests).
func (e *ShardedEngine) Router() Router { return e.router }

// Close stops the shard workers. The engine must be idle.
func (e *ShardedEngine) Close() { e.set.Close() }

// Clone creates an independent sharded engine over the same store and index
// with fresh shard state (parallel runs give every coordinator a clone).
func (e *ShardedEngine) Clone() *ShardedEngine {
	return NewShardedEngine(e.store, e.index, e.cfg, e.shards)
}

// ShardStats returns each shard disk's accumulated statistics, indexed by
// shard.
func (e *ShardedEngine) ShardStats() []pagestore.DiskStats {
	out := make([]pagestore.DiskStats, e.shards)
	for i := 0; i < e.shards; i++ {
		out[i] = e.set.State(i).disk.Stats()
	}
	return out
}

// Stats returns the fleet-wide I/O statistics (per-shard stats folded with
// DiskStats.Add).
func (e *ShardedEngine) Stats() pagestore.DiskStats {
	var agg pagestore.DiskStats
	for i := 0; i < e.shards; i++ {
		s := e.set.State(i).disk.Stats()
		agg.Add(s)
	}
	return agg
}

// ResetStats zeroes every shard disk's statistics.
func (e *ShardedEngine) ResetStats() {
	for i := 0; i < e.shards; i++ {
		e.set.State(i).disk.ResetStats()
	}
}

// RunSequence mirrors Engine.RunSequence step for step — same clearing
// discipline, same observe/plan flow, same window arithmetic — with the
// demand read and the prefetch flush fanned out across the shard workers.
// Comments that would duplicate the unsharded path are omitted; see
// engine.go. Divergences:
//
//   - Cold and Residual price the slowest shard's elevator sweep (the
//     shards' disks run in parallel) plus Route per page shipped from a
//     non-home shard. Cold charges routing for the whole demand set (cold
//     means nothing is cached anywhere); Residual charges it for remote
//     misses only — a remote cache hit is returned by the shard worker from
//     memory and its handoff is folded into CacheHit-scale noise we do not
//     model, keeping hits free exactly as on the unsharded path.
//   - The prefetch window closes per shard: every shard may sweep up to the
//     same budget concurrently, so a window prefetches up to S times more
//     pages while PrefetchIO — the slowest shard's spend — still respects
//     the window. That is the scale-out win the shard1 experiment measures.
func (e *ShardedEngine) RunSequence(seq workload.Sequence, p prefetch.Prefetcher) SequenceResult {
	e.set.Do(func(i int, sh *engineShard) {
		sh.cache.Clear()
		sh.disk.ResetHead()
	})
	p.Reset()

	res := SequenceResult{}
	res.ResultHash = fnvOffset
	ratio := seq.Params.WindowRatio
	if ratio <= 0 {
		ratio = 1
	}

	look := &e.look
	look.begin(e.index, seq.Queries)
	defer look.end()
	for qi, q := range seq.Queries {
		tr := QueryTrace{Seq: qi}

		pageBuf := look.advance(qi)
		tr.ResultPages = len(pageBuf)
		e.parts = e.router.Split(pageBuf, e.parts)
		home := e.router.Home(e.parts)
		tr.Fanout = e.router.Fanout(e.parts)

		outs := e.demand
		parts := e.parts
		served := e.demandRead(parts, pageBuf, &tr)

		var coldMax, missMax time.Duration
		for i := range outs {
			if outs[i].cold > coldMax {
				coldMax = outs[i].cold
			}
			if outs[i].missCost > missMax {
				missMax = outs[i].missCost
			}
			tr.HitPages += outs[i].hits
			e.counts[i] = outs[i].miss
		}
		remoteMiss, missCharge := e.router.Charge(e.counts, home)
		for i := range e.counts {
			e.counts[i] = len(parts[i])
		}
		_, coldCharge := e.router.Charge(e.counts, home)
		tr.Cold = coldMax + coldCharge
		tr.Residual = missMax + missCharge
		tr.RoutedPages = remoteMiss

		// The lookahead refined every candidate page; a demand read that
		// lost pages (only unreplicated outage cells do) re-refines the
		// served set here.
		resultBuf := look.wait(qi)
		if tr.LostPages > 0 {
			resultBuf = look.refineServed(qi, served)
		}
		res.ResultHash = hashResult(res.ResultHash, qi, resultBuf)
		p.Observe(prefetch.Observation{
			Seq:    qi,
			Region: q.Region,
			Center: q.Center,
			Result: resultBuf,
			Pages:  append([]pagestore.PageID(nil), served...),
		})
		plan := p.Plan()
		tr.GraphBuild = plan.GraphBuild
		tr.GraphDelta = plan.GraphDelta
		tr.Prediction = plan.Prediction

		tr.Window = time.Duration(ratio * float64(tr.Cold))
		budget := tr.Window
		if !plan.PredictionHidden {
			budget -= plan.Prediction
		}
		if qi < len(seq.Queries)-1 && budget > 0 {
			tr.Prefetched, tr.PrefetchIO = e.executePlanSharded(plan, budget)
		}

		if e.cfg.ScrubPages > 0 && e.cfg.Backing != nil && qi < len(seq.Queries)-1 {
			if leftover := budget - tr.PrefetchIO; leftover > 0 {
				max := e.cfg.ScrubPages
				if t := e.cfg.Cost.Transfer; t > 0 {
					if byTime := int(leftover / t); byTime < max {
						max = byTime
					}
				}
				// The scrub cursor lives in the shared FileStore; shard 0's
				// disk carries the scrub ledger.
				e.set.State(0).disk.ScrubStep(max)
			}
		}

		// Fold this query's injected read retries into shard health
		// evidence, tick every ledger, and advance the virtual serving
		// clock by the query's end-to-end span. The clock persists across
		// sequences: fault episodes are functions of total time served, not
		// of per-sequence offsets.
		e.ha.tick(e.vclock, func(i int) int64 { return e.set.State(i).disk.Stats().FaultRetries })
		e.vclock += tr.Residual + tr.Window

		counted := !(e.cfg.SkipFirstQuery && qi == 0)
		if counted {
			res.HitPages += int64(tr.HitPages)
			res.TotalPages += int64(tr.ResultPages)
			res.Cold += tr.Cold
			res.Residual += tr.Residual
			res.GraphBuild += tr.GraphBuild
			res.Prediction += tr.Prediction
			if tr.GraphDelta {
				res.DeltaBuilds++
			}
		}
		res.LostPages += int64(tr.LostPages)
		res.Queries = append(res.Queries, tr)
	}
	return res
}

// fnvOffset/fnvPrime are the FNV-1a constants behind SequenceResult.ResultHash.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashResult folds one query's served object IDs into the sequence result
// hash: query index first (so an empty result still advances the fold),
// then every ID in served order.
func hashResult(h uint64, qi int, result []pagestore.ObjectID) uint64 {
	h = (h ^ uint64(qi)) * fnvPrime
	for _, id := range result {
		h = (h ^ uint64(id)) * fnvPrime
	}
	return h
}

// demandRead is the demand read with failover routing (DESIGN.md §13),
// split into two fan-outs so the coordinator can route between them:
//
//	A: every home shard prices its cold sweep and runs its cache lookups —
//	   no storage reads yet, only the miss sub-batches are known after this.
//	B: the coordinator walks each missing home's replica chain (routeDemand)
//	   at the current virtual time; the chosen serving shards then sweep the
//	   sub-batches assigned to them, a browned shard's sweep billed at its
//	   multiplier and replica-slice reads surcharged per page.
//
// A home whose whole chain is down loses its misses: the pages are dropped
// from the served result (the caller answers degraded after waiting out
// the client read deadline), never silently zero-costed. It returns the
// served page set: pageBuf itself when nothing was lost, else a copy
// without the lost pages (the lookahead helper may still be reading
// pageBuf).
func (e *ShardedEngine) demandRead(parts [][]pagestore.PageID, pageBuf []pagestore.PageID, tr *QueryTrace) []pagestore.PageID {
	ha := e.ha
	outs := e.demand
	now := e.vclock

	e.set.Do(func(i int, sh *engineShard) {
		o := &outs[i]
		*o = demandOut{}
		sh.disk.ResetHead()
		sh.miss = sh.miss[:0]
		part := parts[i]
		if len(part) == 0 {
			return
		}
		o.cold = sh.disk.ColdCost(part)
		for _, pg := range part {
			if sh.cache.Lookup(pg) {
				o.hits++
			} else {
				sh.miss = append(sh.miss, pg)
			}
		}
	})

	for j := 0; j < e.shards; j++ {
		r := newRoute(j, 0)
		if len(e.set.State(j).miss) > 0 {
			r = ha.routeDemand(j, now)
		}
		ha.routes[j] = r
	}

	e.set.Do(func(t int, sh *engineShard) {
		for j := 0; j < e.shards; j++ {
			r := &ha.routes[j]
			miss := e.set.State(j).miss
			if r.target != t || len(miss) == 0 {
				continue
			}
			base := sh.disk.ReadBatch(miss)
			var extra time.Duration
			if r.factor > 1 {
				extra = time.Duration(float64(base) * (r.factor - 1))
			}
			var repPages int64
			if t != j {
				repPages = int64(len(miss))
			}
			rep := sh.disk.ChargeHA(extra, repPages)
			outs[j].miss = len(miss)
			outs[j].missCost = r.pre + base + extra + rep
		}
	})

	anyLost := false
	for j := 0; j < e.shards; j++ {
		r := &ha.routes[j]
		miss := e.set.State(j).miss
		if len(miss) == 0 {
			continue
		}
		if ha.settle(j, len(miss), outs[j].missCost-r.pre) {
			tr.LostPages += len(miss)
			outs[j].missCost = r.pre
			anyLost = true
		} else if r.target != j {
			tr.FailedOverPages += len(miss)
		}
	}

	if !anyLost {
		return pageBuf
	}
	// Build the served set without the lost homes' miss pages, preserving
	// pageBuf order (result hashing and the prefetcher observation depend
	// on it).
	lost := make(map[pagestore.PageID]struct{})
	for j := 0; j < e.shards; j++ {
		if ha.routes[j].target < 0 {
			for _, pg := range e.set.State(j).miss {
				lost[pg] = struct{}{}
			}
		}
	}
	kept := e.served[:0]
	for _, pg := range pageBuf {
		if _, dropped := lost[pg]; !dropped {
			kept = append(kept, pg)
		}
	}
	e.served = kept
	return kept
}

// priceSweep prices one home's assembled prefetch sub-batch on this shard's
// disk under the window budget: the usual elevator runs, a brownout
// multiplier on each run's cost, and the per-page replica surcharge when
// this shard serves the range from its replica slice. It only prices — the
// delivered-page count n is replayed for cache insertion on the home shard
// once the (possibly hedged) winner is known. The budget closes on the run
// that crossed it.
func (sh *engineShard) priceSweep(store *pagestore.Store, batch []pagestore.PageID, maxBridge pagestore.PageID, budget time.Duration, factor float64, replica bool) prefetchOut {
	var spent, brown time.Duration
	var repPages int64
	repCost := sh.disk.Model().ReplicaRead
	n := 0
	store.Runs(batch, maxBridge, func(run []pagestore.PageID) bool {
		base := sh.disk.ReadSorted(run)
		cost := base
		if factor > 1 {
			extra := time.Duration(float64(base) * (factor - 1))
			brown += extra
			cost += extra
		}
		if replica {
			repPages += int64(len(run))
			cost += time.Duration(len(run)) * repCost
		}
		spent += cost
		n += len(run)
		return spent <= budget
	})
	sh.disk.ChargeHA(brown, repPages)
	return prefetchOut{spent: spent, n: n}
}

// executePlanSharded is executePlanBatched with the prediction set split by
// shard range, failover routing and hedged reads, in three fan-outs:
//
//	A: each home assembles its sub-batch against its own cache (dedup +
//	   elevator order).
//	B: the coordinator routes every sub-batch (routeQuiet — background work
//	   pays no probes and skips dead chains) and, when hedging is on, marks
//	   the slowest estimated sub-batch for duplicate issue to its next live
//	   replica (planHedge); the serving shards then price the sweeps, each
//	   under the full window budget, concurrently.
//	C: the coordinator takes the cheaper outcome of each hedged pair, and
//	   every home replays its winner's delivered run prefix into its own
//	   cache — insertion must happen on the home (the cache slice is the
//	   home's), which is why pricing and insertion are separate fan-outs.
//
// Shard ranges are contiguous in physical order, so with S=1 the single
// sub-batch is the global batch and the arithmetic is bit-exact with the
// unsharded flush.
func (e *ShardedEngine) executePlanSharded(plan prefetch.Plan, budget time.Duration) (int, time.Duration) {
	buf := appendPredictionSet(e.index, plan, e.batchBuf[:0])
	e.batchBuf = buf

	e.pparts = e.router.Split(buf, e.pparts)
	parts := e.pparts
	maxBridge := e.cfg.Cost.MaxBridge()
	ha := e.ha
	now := e.vclock

	e.set.Do(func(i int, sh *engineShard) {
		sh.batch = sh.batch[:0]
		if len(parts[i]) == 0 {
			return
		}
		sh.batch = append(sh.batch, parts[i]...)
		sh.batch = assembleBatch(e.store, sh.cache, sh.batch)
	})

	mains, hedges := e.prefetch, e.prefHedge
	for j := 0; j < e.shards; j++ {
		mains[j] = prefetchOut{}
		hedges[j] = prefetchOut{}
		r := newRoute(j, 0)
		if len(e.set.State(j).batch) > 0 {
			r = ha.routeQuiet(j, now)
		}
		ha.routes[j] = r
	}
	if ha.hedge > 0 && ha.part.Replicas() > 1 {
		e.planHedge(now)
	}

	e.set.Do(func(t int, sh *engineShard) {
		for j := 0; j < e.shards; j++ {
			r := &ha.routes[j]
			batch := e.set.State(j).batch
			if len(batch) == 0 {
				continue
			}
			if r.target == t {
				mains[j] = sh.priceSweep(e.store, batch, maxBridge, budget, r.factor, t != j)
			}
			if r.hedge == t {
				hedges[j] = sh.priceSweep(e.store, batch, maxBridge, budget, r.hedgeFactor, true)
			}
		}
	})

	for j := 0; j < e.shards; j++ {
		r := &ha.routes[j]
		if r.hedge < 0 || len(e.set.State(j).batch) == 0 {
			continue
		}
		ha.stats.HedgedWindows++
		// The cheaper outcome wins; on a spend tie the primary does (more
		// pages for the same time never loses, and ties must break
		// deterministically).
		if hedges[j].spent < mains[j].spent {
			ha.stats.HedgeWins++
			mains[j] = hedges[j]
		}
	}

	e.set.Do(func(i int, sh *engineShard) {
		left := mains[i].n
		if left == 0 {
			return
		}
		e.store.Runs(sh.batch, maxBridge, func(run []pagestore.PageID) bool {
			for _, pg := range run {
				sh.cache.Insert(pg)
				left--
			}
			return left > 0
		})
	})

	var spentMax time.Duration
	total := 0
	for j := 0; j < e.shards; j++ {
		total += mains[j].n
		if mains[j].spent > spentMax {
			spentMax = mains[j].spent
		}
	}
	return total, spentMax
}

// planHedge marks the hedged prefetch sub-batch: estimate every routed
// shard's sweep as a cold elevator pass (haState.sweepEstimate) scaled by
// its brownout factor and replica surcharge, and when the slowest estimate
// exceeds Hedge times the median, issue that sub-batch to its next live
// chain member too. One hedge per window — the point is trimming the
// straggler that sets PrefetchIO (a max over shards), and duplicating more
// than the argmax only burns replica bandwidth.
func (e *ShardedEngine) planHedge(now time.Duration) {
	ha := e.ha
	est := e.estBuf[:0]
	slowJ, slowEst := -1, time.Duration(-1)
	for j := 0; j < e.shards; j++ {
		r := &ha.routes[j]
		batch := e.set.State(j).batch
		if len(batch) == 0 || r.target < 0 {
			continue
		}
		c := ha.sweepEstimate(e.store, batch)
		if r.factor > 1 {
			c = time.Duration(float64(c) * r.factor)
		}
		if r.target != j {
			c += time.Duration(len(batch)) * ha.cost.ReplicaRead
		}
		est = append(est, c)
		if c > slowEst {
			slowJ, slowEst = j, c
		}
	}
	e.estBuf = est
	if len(est) < 2 {
		return
	}
	sort.Slice(est, func(a, b int) bool { return est[a] < est[b] })
	median := est[len(est)/2]
	if median <= 0 || float64(slowEst) <= ha.hedge*float64(median) {
		return
	}
	hc, hf := ha.hedgePick(slowJ, ha.routes[slowJ].k, now)
	if hc >= 0 {
		ha.routes[slowJ].hedge = hc
		ha.routes[slowJ].hedgeFactor = hf
	}
}
