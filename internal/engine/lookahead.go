package engine

import (
	"sync"

	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/workload"
)

// lookahead takes object refinement off the single coordinator's critical
// path: while the coordinator serves, observes, plans and commits query i,
// a helper goroutine runs store.AppendMatches for query i+1. That is exact
// because a query's candidate pages and result depend only on its region
// and the immutable store and index, and RunSequence holds the whole
// sequence up front; the paper overlaps result retrieval with graph
// building on the same grounds (§4). The coordinator still makes every
// index lookup, so the index is only ever called from one goroutine.
//
// Query qi lives in slot qi&1: the helper fills query i+1's slot while
// Observe reads query i's, and slot i is reused only after query i's
// Observe has returned, so Observation.Result stays valid for the whole
// call. The buffers belong to the engine and are reused across sequences.
//
// Per sequence: begin (which submits query 0), then for each query qi
// advance(qi) and wait(qi), then end (deferred). With inline set, every
// refinement runs on the coordinator and no helper starts.
type lookahead struct {
	store *pagestore.Store
	// inline refines on the coordinator: RunEach sets it on its worker
	// clones, where every core already runs a coordinator of its own.
	inline bool

	index   Index
	queries []workload.Query

	regions [2]geom.Region
	pages   [2][]pagestore.PageID
	results [2][]pagestore.ObjectID

	jobs chan int      // slots to refine; nil when refining inline
	done chan struct{} // one signal per refined slot
	wg   sync.WaitGroup
}

// begin starts the helper for one sequence and submits its first query.
func (la *lookahead) begin(index Index, queries []workload.Query) {
	la.index, la.queries = index, queries
	if !la.inline {
		// At most two refinements are ever unacknowledged (query i's and
		// query i+1's), so with room for two signals the helper never
		// blocks on done and end never waits on a coordinator that
		// stopped consuming it.
		jobs, done := make(chan int, 1), make(chan struct{}, 2)
		la.jobs, la.done = jobs, done
		la.wg.Add(1)
		go func() {
			defer la.wg.Done()
			for s := range jobs {
				la.refine(s)
				done <- struct{}{}
			}
		}()
	}
	if len(queries) > 0 {
		la.submit(0)
	}
}

// end stops the helper and waits for it to exit, so the next sequence may
// reuse the slots. It is safe after a panic anywhere in the sequence.
func (la *lookahead) end() {
	if la.jobs == nil {
		return
	}
	close(la.jobs)
	la.wg.Wait()
	la.jobs, la.done = nil, nil
}

// advance submits query qi+1, if there is one, so that its refinement runs
// while query qi is served, observed and committed, and returns query qi's
// candidate pages. The helper may still be reading them: callers must not
// modify them.
func (la *lookahead) advance(qi int) []pagestore.PageID {
	if qi+1 < len(la.queries) {
		la.submit(qi + 1)
	}
	return la.pages[qi&1]
}

// submit looks up query qi's candidate pages on the coordinator and starts
// its refinement.
func (la *lookahead) submit(qi int) {
	s, r := qi&1, la.queries[qi].Region
	la.regions[s] = r
	la.pages[s] = la.index.QueryPages(r, la.pages[s][:0])
	if la.jobs == nil {
		la.refine(s)
		return
	}
	la.jobs <- s
}

// wait blocks until query qi's refinement has finished and returns its
// result. Calls must come in query order, one per query.
func (la *lookahead) wait(qi int) []pagestore.ObjectID {
	if la.jobs != nil {
		<-la.done
	}
	return la.results[qi&1]
}

// refineServed replaces query qi's result with the refinement of the pages
// actually served, on the calling goroutine; it must follow wait(qi). The
// sharded engine uses it when the demand read lost pages.
func (la *lookahead) refineServed(qi int, served []pagestore.PageID) []pagestore.ObjectID {
	s := qi & 1
	la.results[s] = la.store.AppendMatches(la.regions[s], served, la.results[s][:0])
	return la.results[s]
}

func (la *lookahead) refine(s int) {
	la.results[s] = la.store.AppendMatches(la.regions[s], la.pages[s], la.results[s][:0])
}
