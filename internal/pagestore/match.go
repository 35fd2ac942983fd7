package pagestore

import "scout/internal/geom"

// Matches reports whether object o belongs to the result of a range query
// with the given region. It is the reference definition of a query result;
// Store.AppendMatches is the fast path that must agree with it.
//
// For axis-aligned boxes the test is exact on the object's simplified
// geometry (segment inflated by radius). For other regions (frusta) it is
// conservative on the object's bounding box, the standard behaviour of
// frustum culling: the positive-vertex test can accept an object whose box
// straddles the extension of two planes near a frustum edge or corner, and
// so can accept objects that lie outside the frustum's own bounding box.
// Tightening it would change query results and therefore every pinned
// experiment output.
func Matches(r geom.Region, o Object) bool {
	if b, ok := r.(geom.AABB); ok {
		return o.IntersectsBox(b)
	}
	return r.IntersectsAABB(o.Bounds())
}

// AppendMatches appends to dst the IDs of the objects in the given pages
// that match region r: exactly the IDs, in exactly the order, that testing
// every object of every page with Matches yields (pages in the given order,
// objects in storage order). It is the one refinement kernel behind every
// query path. It allocates only when dst grows and never writes to the
// store, so concurrent readers may share it.
//
// It is faster than the per-object loop because it switches on the region
// type once per call, reads objects in place, and settles whole pages, or
// most of their objects, with tests cheaper than Matches whose outcome
// provably equals it (DESIGN.md, "Refinement kernel"):
//
//   - box: a page whose MBR lies inside the box matches wholesale; in
//     other pages a reject-only prefilter skips objects that lie beyond
//     one face of the box by a clear margin, and every other object goes
//     through Object.IntersectsBox unchanged;
//   - frustum: each page is classified once against the six planes
//     (geom.Frustum.PlaneMask) and its objects are tested only against
//     the planes that cut the page MBR; a page no plane cuts matches
//     wholesale.
//
// The fast paths rely on every object's bounds lying inside its page MBR,
// which holds when all objects have finite coordinates and a finite,
// non-negative radius. A store holding any other object, and any region
// type other than geom.AABB and geom.Frustum, takes the per-object loop.
func (s *Store) AppendMatches(r geom.Region, pages []PageID, dst []ObjectID) []ObjectID {
	if s.regular {
		switch q := r.(type) {
		case geom.AABB:
			return s.appendBoxMatches(q, pages, dst)
		case geom.Frustum:
			return s.appendFrustumMatches(&q, pages, dst)
		}
	}
	for _, pg := range pages {
		for _, id := range s.pages[pg] {
			if Matches(r, s.objects[id]) {
				dst = append(dst, id)
			}
		}
	}
	return dst
}

func (s *Store) appendBoxMatches(b geom.AABB, pages []PageID, dst []ObjectID) []ObjectID {
	for _, pg := range pages {
		ids := s.pages[pg]
		// Every object's bounds lie inside the page MBR, so inside b, so
		// its endpoint A lies inside b.Inflate(radius), and the slab test
		// accepts any segment with an endpoint inside the box.
		if b.ContainsBox(s.pageBounds[pg]) {
			dst = append(dst, ids...)
			continue
		}
		for _, id := range ids {
			o := &s.objects[id]
			if !missesBox(b, o) && o.IntersectsBox(b) {
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// missesBox is the reject-only prefilter of appendBoxMatches: it reports
// true only when o.IntersectsBox(b) is certainly false, because on some
// axis both of the segment's endpoints lie beyond the same face of
// b.Inflate(o.Radius).
func missesBox(b geom.AABB, o *Object) bool {
	r := o.Radius
	a, c := o.Seg.A, o.Seg.B
	return missesSlab(a.X, c.X, b.Min.X-r, b.Max.X+r) ||
		missesSlab(a.Y, c.Y, b.Min.Y-r, b.Max.Y+r) ||
		missesSlab(a.Z, c.Z, b.Min.Z-r, b.Max.Z+r)
}

// slabGap is the relative margin of missesSlab. The slab test's parameters
// carry a relative rounding error of a few ulps (about 1e-15), so a segment
// whose near endpoint clears the face by more than 2^-30 of the far
// endpoint's distance is rejected by it beyond doubt. Nearer misses fall
// through to the slab test itself.
const slabGap = 0x1p-30

// missesSlab reports whether coordinates a and c (a segment's endpoints on
// one axis) both lie beyond the face hi, or both below the face lo, with
// the nearer endpoint's gap to that face more than slabGap of the farther
// endpoint's. lo and hi are the inflated box's faces, computed exactly as
// geom.AABB.Inflate computes them. NaN operands fail every comparison, so
// they never skip.
func missesSlab(a, c, lo, hi float64) bool {
	emin, emax := min(a, c), max(a, c)
	return emin-hi > slabGap*(emax-hi) || lo-emax > slabGap*(lo-emin)
}

func (s *Store) appendFrustumMatches(f *geom.Frustum, pages []PageID, dst []ObjectID) []ObjectID {
	for _, pg := range pages {
		mask, ok := f.PlaneMask(s.pageBounds[pg])
		if !ok {
			continue
		}
		ids := s.pages[pg]
		if mask == 0 {
			dst = append(dst, ids...)
			continue
		}
		for _, id := range ids {
			if f.IntersectsAABBMasked(s.objects[id].Bounds(), mask) {
				dst = append(dst, id)
			}
		}
	}
	return dst
}
