package pagestore

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"scout/internal/geom"
)

// naiveMatches is the reference refinement AppendMatches must reproduce:
// every object of every page tested with Matches, in page order and
// storage order.
func naiveMatches(s *Store, r geom.Region, pages []PageID) []ObjectID {
	var out []ObjectID
	for _, pg := range pages {
		for _, id := range s.PageObjects(pg) {
			if Matches(r, s.Object(id)) {
				out = append(out, id)
			}
		}
	}
	return out
}

// checkAppendMatches fails the test unless AppendMatches returns the
// reference IDs in the reference order, both into a nil slice and after a
// prefix already held in dst.
func checkAppendMatches(t *testing.T, s *Store, r geom.Region, pages []PageID, label string) {
	t.Helper()
	want := naiveMatches(s, r, pages)
	got := s.AppendMatches(r, pages, nil)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: AppendMatches returned %d ids, Matches loop %d (first difference at %d)",
			label, len(got), len(want), firstDiff(got, want))
	}
	prefix := []ObjectID{7, 9}
	got = s.AppendMatches(r, pages, prefix)
	if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
		t.Fatalf("%s: AppendMatches disturbed dst's prefix or appended the wrong ids", label)
	}
}

func firstDiff(a, b []ObjectID) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// mixedObjects scatters n objects in a cube of the given side: ordinary
// cylinders, zero-radius segments, degenerate points (A == B, with and
// without radius) and the occasional long segment.
func mixedObjects(rng *rand.Rand, n int, side float64) []Object {
	objs := make([]Object, n)
	for i := range objs {
		a := geom.V(rng.Float64()*side, rng.Float64()*side, rng.Float64()*side)
		dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		o := Object{Seg: geom.Seg(a, a.Add(dir.Scale(side/100))), Radius: rng.Float64() * side / 200}
		switch {
		case i%97 == 4:
			o.Seg.B = a.Add(dir.Scale(side / 3))
		case i%7 == 1:
			o.Radius = 0
		case i%7 == 2:
			o.Seg.B = o.Seg.A
		case i%7 == 3:
			o.Seg.B, o.Radius = o.Seg.A, 0
		case i%7 == 5:
			// Axis-parallel: two coordinates shared, as grid-aligned data has.
			o.Seg.B = geom.V(a.X+side/50, a.Y, a.Z)
		}
		objs[i] = o
	}
	return objs
}

// paginated builds a store over objs paginated in the given order: "random"
// makes wide pages that straddle every query, "hilbert" tight pages that
// queries often contain wholly.
func paginated(t testing.TB, objs []Object, order string, perPage int, rng *rand.Rand) *Store {
	t.Helper()
	s := NewStore(objs)
	ids := identityOrder(len(objs))
	switch order {
	case "random":
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	case "hilbert":
		world := geom.EmptyAABB()
		for _, o := range objs {
			world = world.Union(o.Bounds())
		}
		key := make([]uint64, len(objs))
		for i, o := range objs {
			key[i] = geom.HilbertKey(o.Centroid(), world)
		}
		sort.SliceStable(ids, func(a, b int) bool { return key[ids[a]] < key[ids[b]] })
	}
	if err := s.Paginate(ids, perPage); err != nil {
		t.Fatal(err)
	}
	return s
}

func allPages(s *Store) []PageID {
	pages := make([]PageID, s.NumPages())
	for i := range pages {
		pages[i] = PageID(i)
	}
	return pages
}

func randomFrustum(rng *rand.Rand, side float64) geom.Frustum {
	eye := geom.V(rng.Float64()*side, rng.Float64()*side, rng.Float64()*side)
	dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	up := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	if dir.Cross(up).Len() < 1e-3 {
		up, _ = dir.Orthonormal()
	}
	return geom.NewFrustum(eye, dir, up, 0.3+rng.Float64()*1.5, 0.5+rng.Float64()*1.5,
		side/50, side/10+rng.Float64()*side/2)
}

// TestAppendMatchesEqualsMatches is the kernel's property test: random
// boxes and frusta over randomly and Hilbert-paginated stores of mixed
// objects, on every page and on shuffled page subsets.
func TestAppendMatchesEqualsMatches(t *testing.T) {
	const side = 100
	for _, order := range []string{"random", "hilbert"} {
		t.Run(order, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			s := paginated(t, mixedObjects(rng, 6000, side), order, 48, rng)
			if !s.regular {
				t.Fatal("store of finite objects with non-negative radii is not regular")
			}
			var inside, straddling, frustumWhole, frustumCut int
			for trial := 0; trial < 150; trial++ {
				c := geom.V(rng.Float64()*side, rng.Float64()*side, rng.Float64()*side)
				box := geom.BoxAt(c, geom.V(rng.Float64()*side/2, rng.Float64()*side/2, rng.Float64()*side/2))
				fr := randomFrustum(rng, side)
				for _, pg := range allPages(s) {
					if box.ContainsBox(s.PageBounds(pg)) {
						inside++
					} else if box.Intersects(s.PageBounds(pg)) {
						straddling++
					}
					if mask, ok := fr.PlaneMask(s.PageBounds(pg)); ok && mask == 0 {
						frustumWhole++
					} else if ok {
						frustumCut++
					}
				}
				checkAppendMatches(t, s, box, allPages(s), "box")
				checkAppendMatches(t, s, fr, allPages(s), "frustum")

				subset := allPages(s)
				rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
				subset = subset[:rng.Intn(len(subset))]
				checkAppendMatches(t, s, box, subset, "box subset")
				checkAppendMatches(t, s, fr, subset, "frustum subset")
			}
			// The hilbert store must exercise the wholesale paths, and both
			// stores the per-object ones.
			if straddling == 0 || frustumCut == 0 {
				t.Errorf("no straddling pages: box %d, frustum %d", straddling, frustumCut)
			}
			if order == "hilbert" && (inside == 0 || frustumWhole == 0) {
				t.Errorf("no wholly-inside pages: box %d, frustum %d", inside, frustumWhole)
			}
		})
	}
}

// ulps returns x moved k units in the last place (toward +Inf for k > 0).
func ulps(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// TestAppendMatchesBoxFaceUlps places segment endpoints within a few ulps
// of a box's faces inflated by the object's radius — the exact boundary of
// IntersectsBox — with near and far other endpoints, so the prefilter's
// margin and the wholesale rule are tested where rounding decides.
func TestAppendMatchesBoxFaceUlps(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	box := geom.Box(geom.V(10, 20, 30), geom.V(13.7, 21.1, 35.3))
	var objs []Object
	for i := 0; i < 6000; i++ {
		r := []float64{0, 0.25, 0.1 * rng.Float64(), 3}[i%4]
		infl := box.Inflate(r)
		axis := rng.Intn(3)
		face := infl.Min.Component(axis)
		if rng.Intn(2) == 0 {
			face = infl.Max.Component(axis)
		}
		near := ulps(face, rng.Intn(9)-4)
		// The other coordinates fall inside the box, so only the chosen
		// axis decides the outcome.
		a := geom.V(box.Min.X+rng.Float64()*3.7, box.Min.Y+rng.Float64()*1.1, box.Min.Z+rng.Float64()*5.3)
		a = a.WithComponent(axis, near)
		b := a
		switch i % 3 {
		case 1: // the far endpoint just beyond the near one
			b = b.WithComponent(axis, ulps(near, rng.Intn(5)-2))
		case 2: // a long segment, away from or across the box
			b = b.WithComponent(axis, near+(rng.Float64()-0.5)*1e6)
		}
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		objs = append(objs, Object{Seg: geom.Seg(a, b), Radius: r})
	}
	for _, order := range []string{"insertion", "random", "hilbert"} {
		s := paginated(t, append([]Object(nil), objs...), order, 32, rng)
		checkAppendMatches(t, s, box, allPages(s), order)
		for _, sub := range []geom.AABB{box.Inflate(1e-12), box.Inflate(-1e-12), box.Inflate(4)} {
			checkAppendMatches(t, s, sub, allPages(s), order+" shifted")
		}
	}
}

// TestMissesBoxNeverRejectsAMatch checks the prefilter's one-sided claim
// directly, over magnitudes from 1e-300 to 1e300: whenever missesBox skips
// an object, IntersectsBox rejects it.
func TestMissesBoxNeverRejectsAMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	skipped := 0
	for trial := 0; trial < 200000; trial++ {
		scale := math.Pow(10, float64(rng.Intn(601)-300))
		coord := func() float64 { return (rng.Float64()*2 - 1) * scale }
		box := geom.Box(geom.V(coord(), coord(), coord()), geom.V(coord(), coord(), coord()))
		r := []float64{0, rng.Float64() * scale, math.SmallestNonzeroFloat64}[trial%3]
		infl := box.Inflate(r)
		axis := rng.Intn(3)
		face := infl.Max.Component(axis)
		if rng.Intn(2) == 0 {
			face = infl.Min.Component(axis)
		}
		a := geom.V(coord(), coord(), coord()).WithComponent(axis, ulps(face, rng.Intn(9)-4))
		b := geom.V(coord(), coord(), coord())
		if rng.Intn(2) == 0 {
			b = b.WithComponent(axis, ulps(a.Component(axis), rng.Intn(9)-4))
		}
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		o := Object{Seg: geom.Seg(a, b), Radius: r}
		if missesBox(box, &o) {
			skipped++
			if o.IntersectsBox(box) {
				t.Fatalf("missesBox skips an object IntersectsBox accepts: %+v in %v", o, box)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("prefilter never skipped")
	}
}

// TestAppendMatchesFrustumPlaneUlps places points and tiny boxes within a
// few ulps of a frustum's near, far and side planes, clustered so whole
// pages sit against a plane.
func TestAppendMatchesFrustumPlaneUlps(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	// Eye at the origin looking down +X, so the near and far planes are
	// x = near and x = far, and the side planes pass through the origin
	// and the far corners.
	const fovY, aspect, near, far = 0.9, 1.4, 2.0, 40.0
	fr := geom.NewFrustum(geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 0, 1), fovY, aspect, near, far)
	tanY := math.Tan(fovY / 2)
	tanX := tanY * aspect
	var objs []Object
	for i := 0; i < 6000; i++ {
		x := near + rng.Float64()*(far-near)
		sy := (rng.Float64()*2 - 1) * tanX * x
		sz := (rng.Float64()*2 - 1) * tanY * x
		var p geom.Vec3
		switch i % 4 {
		case 0: // near plane
			p = geom.V(ulps(near, rng.Intn(9)-4), sy, sz)
		case 1: // far plane
			p = geom.V(ulps(far, rng.Intn(9)-4), sy, sz)
		case 2: // a side plane (right/left in y)
			y := tanX * x
			if rng.Intn(2) == 0 {
				y = -y
			}
			p = geom.V(x, ulps(y, rng.Intn(9)-4), sz)
		case 3: // top/bottom plane in z
			z := tanY * x
			if rng.Intn(2) == 0 {
				z = -z
			}
			p = geom.V(x, sy, ulps(z, rng.Intn(9)-4))
		}
		o := Object{Seg: geom.Seg(p, p)}
		if i%3 == 1 {
			o.Seg.B = geom.V(ulps(p.X, 1), ulps(p.Y, -1), p.Z)
		}
		if i%5 == 2 {
			o.Radius = 1e-13
		}
		objs = append(objs, o)
	}
	// Insertion order keeps each plane's objects together (i%4 cycles, so
	// each page of 4k objects holds them in equal parts); hilbert order
	// groups them by position along the plane.
	for _, order := range []string{"insertion", "random", "hilbert"} {
		s := paginated(t, append([]Object(nil), objs...), order, 40, rng)
		checkAppendMatches(t, s, fr, allPages(s), order)
	}
	// Pages of objects from one plane only.
	var byPlane []Object
	for k := 0; k < 4; k++ {
		for i := k; i < len(objs); i += 4 {
			byPlane = append(byPlane, objs[i])
		}
	}
	s := paginated(t, byPlane, "insertion", 40, rng)
	checkAppendMatches(t, s, fr, allPages(s), "per-plane pages")
}

// TestAppendMatchesIrregularStore covers the fallback: a store holding
// negative or NaN radii or non-finite coordinates takes the per-object
// loop, and still equals it.
func TestAppendMatchesIrregularStore(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, bad := range []Object{
		{Seg: geom.Seg(geom.V(50, 50, 50), geom.V(51, 50, 50)), Radius: -2},
		{Seg: geom.Seg(geom.V(50, 50, 50), geom.V(51, 50, 50)), Radius: math.NaN()},
		{Seg: geom.Seg(geom.V(50, math.Inf(1), 50), geom.V(51, 50, 50)), Radius: 1},
		{Seg: geom.Seg(geom.V(50, 50, 50), geom.V(math.NaN(), 50, 50))},
	} {
		objs := mixedObjects(rng, 500, 100)
		objs[123] = bad
		s := paginated(t, objs, "hilbert", 16, rng)
		if s.regular {
			t.Fatalf("store holding %+v reported regular", bad)
		}
		checkAppendMatches(t, s, geom.CubeAt(geom.V(50, 50, 50), 1e5), allPages(s), "irregular box")
		checkAppendMatches(t, s, randomFrustum(rng, 100), allPages(s), "irregular frustum")
	}
}

// TestAppendMatchesNoAllocs pins the kernel's allocation contract: nothing
// once dst has capacity.
func TestAppendMatchesNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	s := paginated(t, mixedObjects(rng, 5000, 100), "hilbert", 64, rng)
	pages := allPages(s)
	for _, r := range []geom.Region{geom.CubeAt(geom.V(50, 50, 50), 2e4), randomFrustum(rng, 100)} {
		buf := s.AppendMatches(r, pages, nil)
		if allocs := testing.AllocsPerRun(50, func() { buf = s.AppendMatches(r, pages, buf[:0]) }); allocs != 0 {
			t.Errorf("%T: AppendMatches allocates %.1f times per call, want 0", r, allocs)
		}
	}
}

// benchmarkAppendMatches refines the pages an index would return for a
// walk-sized query over 200k short cylinders, with the kernel and with the
// per-object Matches loop it replaces.
func benchmarkAppendMatches(b *testing.B, r geom.Region) {
	const side = 500
	rng := rand.New(rand.NewSource(67))
	objs := make([]Object, 200_000)
	for i := range objs {
		a := geom.V(rng.Float64()*side, rng.Float64()*side, rng.Float64()*side)
		d := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize().Scale(side / 200)
		objs[i] = Object{Seg: geom.Seg(a, a.Add(d)), Radius: side / 1000}
	}
	s := paginated(b, objs, "hilbert", DefaultObjectsPerPage, rng)
	rb := r.Bounds()
	var pages []PageID
	for _, pg := range allPages(s) {
		if s.PageBounds(pg).Intersects(rb) && r.IntersectsAABB(s.PageBounds(pg)) {
			pages = append(pages, pg)
		}
	}
	buf := s.AppendMatches(r, pages, nil)
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = s.AppendMatches(r, pages, buf[:0])
		}
	})
	b.Run("matches-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, pg := range pages {
				for _, id := range s.PageObjects(pg) {
					if Matches(r, s.Object(id)) {
						buf = append(buf, id)
					}
				}
			}
		}
	})
}

func BenchmarkAppendMatchesBox(b *testing.B) {
	benchmarkAppendMatches(b, geom.CubeAt(geom.V(250, 250, 250), 80_000))
}

func BenchmarkAppendMatchesFrustum(b *testing.B) {
	benchmarkAppendMatches(b, geom.FrustumWithVolume(geom.V(250, 250, 250),
		geom.V(1, 0.3, 0.2), geom.V(0, 0, 1), 0.9, 1.3, 80_000))
}
