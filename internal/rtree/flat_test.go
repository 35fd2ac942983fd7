package rtree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// pointerNode is the reference pointer-chased R-tree node the flat layout
// replaced. The test rebuilds it with the exact packing rule of Build (STR
// runs of Fanout consecutive children) and cross-checks query results, so
// any drift in the implicit child addressing shows up as a set difference.
type pointerNode struct {
	mbr      geom.AABB
	children []*pointerNode
	page     pagestore.PageID
}

// buildPointerTree packs an already-paginated store into a pointer tree.
func buildPointerTree(store *pagestore.Store, fanout int) *pointerNode {
	level := make([]*pointerNode, store.NumPages())
	for p := 0; p < store.NumPages(); p++ {
		level[p] = &pointerNode{
			mbr:  store.PageBounds(pagestore.PageID(p)),
			page: pagestore.PageID(p),
		}
	}
	for len(level) > 1 {
		var parents []*pointerNode
		for start := 0; start < len(level); start += fanout {
			end := min(start+fanout, len(level))
			mbr := geom.EmptyAABB()
			for _, c := range level[start:end] {
				mbr = mbr.Union(c.mbr)
			}
			parents = append(parents, &pointerNode{mbr: mbr, children: level[start:end]})
		}
		level = parents
	}
	if len(level) == 0 {
		return nil
	}
	return level[0]
}

// queryPages is the reference descent: the bounds test and the region's
// own test at every node, with no shortcut for any region type. visited
// counts the nodes inspected.
func (n *pointerNode) queryPages(r geom.Region, rb geom.AABB, dst []pagestore.PageID, visited *int64) []pagestore.PageID {
	*visited++
	if !n.mbr.Intersects(rb) || !r.IntersectsAABB(n.mbr) {
		return dst
	}
	if n.children == nil {
		return append(dst, n.page)
	}
	for _, c := range n.children {
		dst = c.queryPages(r, rb, dst, visited)
	}
	return dst
}

// queryPagesStack reproduces the seed's traversal verbatim — an explicit
// node stack allocated per query — so benchmarks can compare the old hot
// path against the flat layout.
func (n *pointerNode) queryPagesStack(r geom.Region, dst []pagestore.PageID) []pagestore.PageID {
	if n == nil {
		return dst
	}
	rb := r.Bounds()
	stack := make([]*pointerNode, 0, n.height()*87)
	stack = append(stack, n)
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !nd.mbr.Intersects(rb) || !r.IntersectsAABB(nd.mbr) {
			continue
		}
		if nd.children == nil {
			dst = append(dst, nd.page)
			continue
		}
		for _, c := range nd.children {
			stack = append(stack, c)
		}
	}
	return dst
}

func (n *pointerNode) height() int {
	h := 1
	for c := n; c.children != nil; c = c.children[0] {
		h++
	}
	return h
}

func sortedPages(ps []pagestore.PageID) []pagestore.PageID {
	out := append([]pagestore.PageID(nil), ps...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// TestFlatMatchesPointerTree verifies the tentpole refactor: the implicit
// SoA tree must return exactly the page set of the equivalent pointer tree
// on random box and frustum regions, across awkward fanouts (partial last
// parents at every level).
func TestFlatMatchesPointerTree(t *testing.T) {
	for _, tc := range []struct {
		name            string
		objects         int
		perPage, fanout int
	}{
		{"default", 5000, 87, 87},
		{"tinyFanout", 3000, 20, 3},
		{"partialRuns", 2777, 13, 5},
		{"singleLevel", 50, 87, 87},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := pagestore.NewStore(uniformObjects(tc.objects, 100, 17))
			tree, err := BulkLoad(store, Config{ObjectsPerPage: tc.perPage, Fanout: tc.fanout})
			if err != nil {
				t.Fatal(err)
			}
			ref := buildPointerTree(store, tc.fanout)
			rng := rand.New(rand.NewSource(23))
			for trial := 0; trial < 200; trial++ {
				c := geom.V(rng.Float64()*110-5, rng.Float64()*110-5, rng.Float64()*110-5)
				var q geom.Region = geom.CubeAt(c, 100+rng.Float64()*80000)
				if trial%4 == 3 {
					q = geom.NewFrustum(c, geom.V(1, 0, 0), geom.V(0, 0, 1),
						math.Pi/3, 1.3, 1, 5+rng.Float64()*40)
				}
				got := sortedPages(tree.QueryPages(q, nil))
				var visited int64
				want := sortedPages(ref.queryPages(q, q.Bounds(), nil, &visited))
				if len(got) != len(want) {
					t.Fatalf("trial %d: flat returned %d pages, pointer %d", trial, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d: page sets differ at %d: %d vs %d", trial, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestQueryPagesAscendingOrder pins the flat traversal's output order: the
// implicit layout yields pages in ascending ID order, which the disk model
// rewards with sequential-run discounts.
func TestQueryPagesAscendingOrder(t *testing.T) {
	store := pagestore.NewStore(uniformObjects(4000, 100, 19))
	tree, err := BulkLoad(store, Config{ObjectsPerPage: 30, Fanout: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		c := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		pages := tree.QueryPages(geom.CubeAt(c, 1000+rng.Float64()*50000), nil)
		for i := 1; i < len(pages); i++ {
			if pages[i] <= pages[i-1] {
				t.Fatalf("trial %d: pages out of order: %v", trial, pages)
			}
		}
	}
}

// TestQueryPagesNoAllocs verifies the hot path stays allocation-free once
// the caller's destination slice has capacity.
func TestQueryPagesNoAllocs(t *testing.T) {
	store := pagestore.NewStore(uniformObjects(50_000, 200, 31))
	tree, err := BulkLoad(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Box the region into the interface once: the engine holds regions as
	// geom.Region already, so per-call boxing is not part of the hot path.
	var q geom.Region = geom.CubeAt(geom.V(100, 100, 100), 50_000)
	buf := tree.QueryPages(q, nil) // warm the buffer
	allocs := testing.AllocsPerRun(100, func() {
		buf = tree.QueryPages(q, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("QueryPages allocates %.1f times per query, want 0", allocs)
	}
}

// TestQueryPagesMatchesReferenceDescent pins the lean descent to the
// reference one: the same pages in the same order and the same
// NodesVisited count, for boxes, frusta, empty, NaN and infinite regions,
// over a store whose negative-radius objects make some page MBRs empty.
func TestQueryPagesMatchesReferenceDescent(t *testing.T) {
	objs := uniformObjects(3000, 100, 37)
	// A separate cluster of objects with empty bounds: STR packs them into
	// pages (and parents) of their own, whose MBRs are empty.
	for i := 0; i < 400; i++ {
		p := geom.V(200+float64(i%20), float64(i/20), 50)
		objs = append(objs, pagestore.Object{Seg: geom.Seg(p, p), Radius: -1})
	}
	store := pagestore.NewStore(objs)
	tree, err := BulkLoad(store, Config{ObjectsPerPage: 20, Fanout: 5})
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for p := 0; p < store.NumPages(); p++ {
		if store.PageBounds(pagestore.PageID(p)).IsEmpty() {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("fixture has no empty page MBR")
	}
	ref := buildPointerTree(store, tree.Fanout())

	inf, nan := math.Inf(1), math.NaN()
	regions := []geom.Region{
		geom.AABB{Min: geom.V(-inf, -inf, -inf), Max: geom.V(inf, inf, inf)},
		geom.Box(geom.V(-1e9, -1e9, -1e9), geom.V(1e9, 1e9, 1e9)),
		geom.AABB{Min: geom.V(10, 10, 10), Max: geom.V(5, 50, 50)}, // empty
		geom.EmptyAABB(),
		geom.AABB{Min: geom.V(nan, 0, 0), Max: geom.V(100, 100, 100)},
		geom.Box(geom.V(190, -10, 40), geom.V(230, 30, 60)), // the empty cluster only
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		c := geom.V(rng.Float64()*120-10, rng.Float64()*120-10, rng.Float64()*120-10)
		if trial%3 == 2 {
			regions = append(regions, geom.NewFrustum(c, geom.V(rng.NormFloat64(), rng.NormFloat64(), 0.3),
				geom.V(0, 0, 1), math.Pi/3, 1.3, 1, 5+rng.Float64()*60))
		} else {
			regions = append(regions, geom.CubeAt(c, 10+rng.Float64()*200000))
		}
	}
	for i, q := range regions {
		tree.ResetNodesVisited()
		got := tree.QueryPages(q, nil)
		var visited int64
		want := ref.queryPages(q, q.Bounds(), nil, &visited)
		if !slices.Equal(got, want) {
			t.Fatalf("region %d (%v): pages %v, reference %v", i, q.Bounds(), got, want)
		}
		if tree.NodesVisited() != visited {
			t.Fatalf("region %d (%v): NodesVisited %d, reference %d", i, q.Bounds(), tree.NodesVisited(), visited)
		}
	}
}
