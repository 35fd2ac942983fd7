package main

import (
	"fmt"
	"slices"
	"time"

	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
)

// checks collects correctness failures. A run with any failure prints
// "correct": false and exits non-zero.
type checks struct {
	failures []string
	// failedQueries counts the queries whose outcome a failed check covers.
	failedQueries int
	// samples counts brute-force checked queries; extra counts the result
	// objects in them that lie wholly outside the region's bounds.
	samples, extra int
}

func (c *checks) failf(queries int, format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
	c.failedQueries += queries
}

func (c *checks) ok() bool { return len(c.failures) == 0 }

// sample is one observed query kept for the brute-force check.
type sample struct {
	label  string
	region geom.Region
	result []pagestore.ObjectID
	// subset marks a result that may lawfully miss objects: pages lost to
	// an unreplicated shard outage are answered without them.
	subset bool
}

// capture forwards to a prefetcher and keeps every every-th observation
// (starting at offset) as a brute-force sample.
type capture struct {
	prefetch.Prefetcher
	label         string
	every, offset int
	subset        bool
	n             int
	out           *[]sample
}

// Observe implements prefetch.Prefetcher.
func (c *capture) Observe(obs prefetch.Observation) {
	if c.n%c.every == c.offset {
		*c.out = append(*c.out, sample{
			label:  fmt.Sprintf("%s query %d", c.label, obs.Seq),
			region: obs.Region,
			result: append([]pagestore.ObjectID(nil), obs.Result...),
			subset: c.subset,
		})
	}
	c.n++
	c.Prefetcher.Observe(obs)
}

// bruteForce checks every sample's result against a scan of all store
// objects with pagestore.Matches. Matches is conservative: for a frustum
// its plane test also accepts some objects wholly outside the frustum's
// bounding box, which cannot intersect it, and whether such an object
// appears in a result depends on whether the index prunes its page. So a
// result must lie within the Matches set (upper) and contain every
// Matches object whose bounds meet the region's bounds (lower). For a box
// region the two sets coincide and the check is equality. A sample marked
// subset (pages lost to an unreplicated outage) need not reach lower.
// c.extra counts result objects outside the region's bounds.
func bruteForce(store *pagestore.Store, samples []sample, c *checks) {
	for _, s := range samples {
		var upper, lower []pagestore.ObjectID
		rb := s.region.Bounds()
		for i, o := range store.Objects() {
			if !pagestore.Matches(s.region, o) {
				continue
			}
			upper = append(upper, pagestore.ObjectID(i))
			if o.Bounds().Intersects(rb) {
				lower = append(lower, pagestore.ObjectID(i))
			}
		}
		c.samples++
		got := append([]pagestore.ObjectID(nil), s.result...)
		slices.Sort(got)
		switch {
		case !isSubset(got, upper):
			c.failf(1, "%s: result holds objects pagestore.Matches rejects (or duplicates)", s.label)
		case !s.subset && !isSubset(lower, got):
			c.failf(1, "%s: %d objects, misses some of the %d the scan finds inside the region's bounds",
				s.label, len(got), len(lower))
		}
		c.extra += len(got) - countIn(got, lower)
	}
}

// countIn counts the elements of sorted a present in sorted b.
func countIn(a, b []pagestore.ObjectID) int {
	n, j := 0, 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			n++
		}
	}
	return n
}

// isSubset reports whether sorted a is contained in sorted b, with no
// duplicates in a.
func isSubset(a, b []pagestore.ObjectID) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] == a[i] {
			return false
		}
	}
	return countIn(a, b) == len(a)
}

// stopwatch forwards to a prefetcher and records a serve session's
// plan-phase wall time per exploration: from the Reset that starts a
// sequence to that sequence's last Plan.
type stopwatch struct {
	prefetch.Prefetcher
	start, end time.Time
	running    bool
	laps       []time.Duration
}

// Reset implements prefetch.Prefetcher.
func (s *stopwatch) Reset() {
	s.stop()
	s.start, s.running = time.Now(), true
	s.Prefetcher.Reset()
}

// Plan implements prefetch.Prefetcher.
func (s *stopwatch) Plan() prefetch.Plan {
	p := s.Prefetcher.Plan()
	s.end = time.Now()
	return p
}

func (s *stopwatch) stop() {
	if s.running {
		s.laps = append(s.laps, s.end.Sub(s.start))
		s.running = false
	}
}

// take returns the recorded laps and clears them.
func (s *stopwatch) take() []time.Duration {
	s.stop()
	laps := s.laps
	s.laps = nil
	return laps
}
