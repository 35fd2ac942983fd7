// Package pagestore models the on-disk representation of a spatial dataset:
// fixed-size pages of spatial objects plus a deterministic disk cost model.
//
// The paper stores 450M cylinders on a 4-disk SAS array in 4 KB pages holding
// 87 objects each (§7.1). This package reproduces that layout in memory and
// replaces the physical disks with a virtual-clock cost model so experiments
// are deterministic and machine-independent (see DESIGN.md §2). All times
// returned by Disk methods are simulated, never wall-clock.
package pagestore

import (
	"fmt"
	"math"

	"scout/internal/geom"
)

// ObjectID identifies a spatial object within a Store.
type ObjectID uint32

// PageID identifies a disk page within a Store.
type PageID uint32

// InvalidPage marks an object not yet assigned to any page.
const InvalidPage = PageID(^uint32(0))

// Object is one stored spatial object. All dataset geometries are reduced to
// a line segment plus radius, following the paper's geometry-simplification
// rule (§4.2: "a minimum bounding rectangle ..., a straight line or a point
// can be used"): cylinders keep their axis and maximum radius, mesh
// triangles keep their longest edge, road segments are stored as-is.
type Object struct {
	ID  ObjectID
	Seg geom.Segment
	// Radius inflates the segment into the object's true extent; zero for
	// line data such as road networks.
	Radius float64
	// Struct is the ground-truth structure identifier assigned by the
	// dataset generator (a neuron branch, an artery, a road). It exists so
	// workload generators can walk real structures; prefetchers MUST NOT
	// read it — SCOUT infers structure from geometry alone.
	Struct int32
}

// Bounds returns the conservative axis-aligned bounding box of the object:
// o.Seg.Bounds().Inflate(o.Radius), spelled out so that it inlines.
func (o Object) Bounds() geom.AABB {
	a, b, r := o.Seg.A, o.Seg.B, o.Radius
	return geom.AABB{
		Min: geom.Vec3{X: min(a.X, b.X) - r, Y: min(a.Y, b.Y) - r, Z: min(a.Z, b.Z) - r},
		Max: geom.Vec3{X: max(a.X, b.X) + r, Y: max(a.Y, b.Y) + r, Z: max(a.Z, b.Z) + r},
	}
}

// Centroid returns the midpoint of the object's segment.
func (o Object) Centroid() geom.Vec3 { return o.Seg.Midpoint() }

// IntersectsBox conservatively reports whether the object intersects box b.
func (o Object) IntersectsBox(b geom.AABB) bool {
	if o.Radius == 0 {
		return o.Seg.IntersectsAABB(b)
	}
	return o.Seg.IntersectsAABB(b.Inflate(o.Radius))
}

// Store holds a dataset's objects and their assignment to pages. A Store is
// immutable after pagination and safe for concurrent readers; the one
// exception is Relayout (layout.go), which swaps the physical-page
// placement and must not run concurrently with readers.
type Store struct {
	objects []Object
	// pages[p] lists the objects stored in page p, in storage order.
	pages [][]ObjectID
	// pageOf[o] is the page holding object o.
	pageOf []PageID
	// pageBounds[p] is the MBR of page p's objects.
	pageBounds []geom.AABB
	perPage    int
	// physOf[p] is the physical address of logical page p, installed by
	// Relayout (see layout.go). Nil means the identity layout — physical ==
	// logical — which keeps the seed's exact cost path.
	physOf []PageID
	// layout names the installed Layout ("" == "insertion").
	layout string
	// regular records that every object has finite coordinates and a
	// finite, non-negative radius, so its bounds lie inside its page MBR;
	// AppendMatches' fast paths rely on it.
	regular bool
}

// PageSizeBytes is the modeled page size (§7.1: "4KB page size").
const PageSizeBytes = 4096

// DefaultObjectsPerPage is the modeled page fanout. The paper stores 87
// objects per 4 KB page (§7.1, ≈47 bytes each including attributes); this
// reproduction's Object is 64 bytes (two endpoints, radius, ids), so a 4 KB
// page honestly holds 64.
const DefaultObjectsPerPage = 64

// NewStore creates a store over the given objects. Object IDs are rewritten
// to their slice positions so lookups are O(1). Pages are not assigned until
// Paginate is called (normally by an index bulk-loader, which chooses the
// storage order).
func NewStore(objects []Object) *Store {
	s := &Store{objects: objects, pageOf: make([]PageID, len(objects)), regular: true}
	for i := range s.objects {
		o := &s.objects[i]
		o.ID = ObjectID(i)
		s.pageOf[i] = InvalidPage
		if !(o.Seg.A.IsFinite() && o.Seg.B.IsFinite() && o.Radius >= 0 && !math.IsInf(o.Radius, 1)) {
			s.regular = false
		}
	}
	return s
}

// NumObjects returns the number of stored objects.
func (s *Store) NumObjects() int { return len(s.objects) }

// NumPages returns the number of pages (0 before pagination).
func (s *Store) NumPages() int { return len(s.pages) }

// ObjectsPerPage returns the pagination fanout (0 before pagination).
func (s *Store) ObjectsPerPage() int { return s.perPage }

// Object returns the object with the given ID.
func (s *Store) Object(id ObjectID) Object { return s.objects[int(id)] }

// Objects returns the backing object slice. Callers must not modify it.
func (s *Store) Objects() []Object { return s.objects }

// PageOf returns the page holding the given object.
func (s *Store) PageOf(id ObjectID) PageID { return s.pageOf[int(id)] }

// PageObjects returns the IDs of the objects in page p. Callers must not
// modify the returned slice.
func (s *Store) PageObjects(p PageID) []ObjectID { return s.pages[int(p)] }

// PageBounds returns the MBR of page p's objects.
func (s *Store) PageBounds(p PageID) geom.AABB { return s.pageBounds[int(p)] }

// Paginate assigns objects to pages of perPage objects each, in the given
// storage order. The order slice must be a permutation of all object IDs;
// the bulk loader of the index decides it (STR order in this reproduction,
// matching the paper's "STR Bulkloaded" R-tree with 100% fill factor).
func (s *Store) Paginate(order []ObjectID, perPage int) error {
	if perPage < 1 {
		return fmt.Errorf("pagestore: perPage %d < 1", perPage)
	}
	if len(order) != len(s.objects) {
		return fmt.Errorf("pagestore: order has %d ids, store has %d objects",
			len(order), len(s.objects))
	}
	seen := make([]bool, len(s.objects))
	for _, id := range order {
		if int(id) >= len(s.objects) {
			return fmt.Errorf("pagestore: order contains unknown object %d", id)
		}
		if seen[id] {
			return fmt.Errorf("pagestore: order contains object %d twice", id)
		}
		seen[id] = true
	}

	s.perPage = perPage
	numPages := (len(order) + perPage - 1) / perPage
	s.pages = make([][]ObjectID, 0, numPages)
	s.pageBounds = make([]geom.AABB, 0, numPages)
	for start := 0; start < len(order); start += perPage {
		end := start + perPage
		if end > len(order) {
			end = len(order)
		}
		page := make([]ObjectID, end-start)
		copy(page, order[start:end])
		pid := PageID(len(s.pages))
		mbr := geom.EmptyAABB()
		for _, id := range page {
			s.pageOf[id] = pid
			mbr = mbr.Union(s.objects[id].Bounds())
		}
		s.pages = append(s.pages, page)
		s.pageBounds = append(s.pageBounds, mbr)
	}
	return nil
}

// Paginated reports whether pages have been assigned.
func (s *Store) Paginated() bool { return len(s.pages) > 0 }

// TotalBytes returns the modeled on-disk size of the dataset.
func (s *Store) TotalBytes() int64 {
	return int64(s.NumPages()) * PageSizeBytes
}
