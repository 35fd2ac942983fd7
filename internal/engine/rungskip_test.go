package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"scout/internal/cache"
	"scout/internal/flatindex"
	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/rtree"
)

// randomPlan builds a plan that stresses the covered-rung skip:
// interleaved IncrementalRequests ladders (some along an axis, some
// oblique), duplicated boxes, empty and inverted boxes, boxes whose faces
// lie exactly on a page MBR's faces (with a later box sharing the face),
// a box partly overlapping a later one, one frustum, and a few traversal
// pages.
func randomPlan(rng *rand.Rand, store *pagestore.Store) prefetch.Plan {
	randVec := func(lo, hi float64) geom.Vec3 {
		return geom.V(lo+rng.Float64()*(hi-lo), lo+rng.Float64()*(hi-lo), lo+rng.Float64()*(hi-lo))
	}
	var ladders [][]prefetch.Request
	for l := 1 + rng.Intn(4); l > 0; l-- {
		dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize()
		if rng.Intn(3) == 0 {
			axis := [3]geom.Vec3{geom.V(1, 0, 0), geom.V(0, -1, 0), geom.V(0, 0, 1)}
			dir = axis[rng.Intn(3)]
		}
		side := 5 + rng.Float64()*35
		ladders = append(ladders, prefetch.IncrementalRequests(randVec(0, 200), dir, side*side*side, 1+rng.Intn(8)))
	}
	var reqs []prefetch.Request
	for i := 0; ; i++ {
		advanced := false
		for _, l := range ladders {
			if i < len(l) {
				reqs = append(reqs, l[i])
				advanced = true
			}
		}
		if !advanced {
			break
		}
	}
	insert := func(r geom.Region) {
		at := rng.Intn(len(reqs) + 1)
		reqs = slices.Insert(reqs, at, prefetch.Request{Region: r})
	}
	for d := rng.Intn(3); d > 0; d-- {
		insert(reqs[rng.Intn(len(reqs))].Region)
	}
	insert(geom.EmptyAABB())
	insert(geom.Box(geom.V(50, 50, 50), geom.V(60, 60, 60)).Intersection(geom.Box(geom.V(70, 0, 0), geom.V(80, 200, 200))))
	// A box sitting on a page MBR's +x face, then a later box that shares
	// that face exactly and contains it.
	pb := store.PageBounds(pagestore.PageID(rng.Intn(store.NumPages())))
	touch := geom.AABB{Min: geom.V(pb.Max.X, pb.Min.Y, pb.Min.Z), Max: geom.V(pb.Max.X+3, pb.Max.Y, pb.Max.Z)}
	at := rng.Intn(len(reqs) + 1)
	reqs = slices.Insert(reqs, at, prefetch.Request{Region: touch})
	outer := geom.AABB{Min: touch.Min, Max: touch.Max.Add(geom.V(4, 4, 4))}
	reqs = slices.Insert(reqs, at+1+rng.Intn(len(reqs)-at), prefetch.Request{Region: outer})
	insert(pb)
	// A box that overlaps a later box without lying inside it: it must
	// not be skipped.
	part := geom.BoxAt(randVec(20, 180), randVec(4, 30))
	at = rng.Intn(len(reqs) + 1)
	reqs = slices.Insert(reqs, at, prefetch.Request{Region: part})
	shifted := geom.AABB{Min: part.Min.Add(part.Size().Scale(0.5)), Max: part.Max.Add(part.Size().Scale(0.5))}
	reqs = slices.Insert(reqs, at+1+rng.Intn(len(reqs)-at), prefetch.Request{Region: shifted})
	insert(geom.FrustumWithVolume(randVec(20, 180), geom.V(1, rng.Float64()*2-1, rng.Float64()-0.5), geom.V(0, 0, 1), math.Pi/3, 1.3, 20000))

	var trav []pagestore.PageID
	for n := rng.Intn(4); n > 0; n-- {
		trav = append(trav, pagestore.PageID(rng.Intn(store.NumPages())))
	}
	return prefetch.Plan{Requests: reqs, TraversalPages: trav}
}

// TestRungSkipProperty checks the covered-rung skip of the union flushes
// over both index implementations: the assembled batch with box requests
// inside later box requests skipped equals the batch built from every
// request, and QueryPages is monotone under box containment — the Index
// contract the skip rests on.
func TestRungSkipProperty(t *testing.T) {
	store, tree := cloudWorld(t, 12000, 19)
	flat, err := flatindex.Build(store, rtree.Config{ObjectsPerPage: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	indexes := []struct {
		name string
		ix   Index
	}{{"rtree", tree}, {"flatindex", flat}}

	rng := rand.New(rand.NewSource(7))
	cached := cache.New(64)
	for i := 0; i < 64; i++ {
		cached.Insert(pagestore.PageID(rng.Intn(store.NumPages())))
	}
	skipped, pairs := 0, 0
	for trial := 0; trial < 300; trial++ {
		plan := randomPlan(rng, store)
		for i := range plan.Requests {
			if coveredLater(plan.Requests, i) {
				skipped++
			}
		}
		for _, x := range indexes {
			all := append([]pagestore.PageID(nil), plan.TraversalPages...)
			for _, r := range plan.Requests {
				all = x.ix.QueryPages(r.Region, all)
			}
			want := assembleBatch(store, cached, all)
			got := assembleBatch(store, cached, appendPredictionSet(x.ix, plan, nil))
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, %s: batch with covered rungs skipped (%d pages) != batch from all requests (%d pages)",
					trial, x.name, len(got), len(want))
			}

			for i, ri := range plan.Requests {
				inner, ok := ri.Region.(geom.AABB)
				if !ok {
					continue
				}
				innerPages := x.ix.QueryPages(inner, nil)
				for j, rj := range plan.Requests {
					outer, ok := rj.Region.(geom.AABB)
					if !ok || i == j || !outer.ContainsBox(inner) {
						continue
					}
					pairs++
					outerPages := x.ix.QueryPages(outer, nil)
					for _, pg := range innerPages {
						if !slices.Contains(outerPages, pg) {
							t.Fatalf("trial %d, %s: page %d of box %v missing from containing box %v",
								trial, x.name, pg, inner, outer)
						}
					}
				}
			}
		}
	}
	if skipped == 0 || pairs == 0 {
		t.Fatalf("vacuous: %d rungs skipped, %d containing pairs checked", skipped, pairs)
	}
}
