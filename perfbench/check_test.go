package main

import (
	"testing"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

func TestIsSubset(t *testing.T) {
	ids := func(xs ...pagestore.ObjectID) []pagestore.ObjectID { return xs }
	for _, c := range []struct {
		a, b []pagestore.ObjectID
		want bool
	}{
		{nil, nil, true},
		{nil, ids(1), true},
		{ids(1, 3), ids(1, 2, 3), true},
		{ids(1, 4), ids(1, 2, 3), false},
		{ids(2, 2), ids(1, 2, 3), false},
		{ids(1, 2, 3), ids(1, 3), false},
	} {
		if got := isSubset(c.a, c.b); got != c.want {
			t.Errorf("isSubset(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestBruteForce(t *testing.T) {
	// Three short segments along x; the box query covers the first two.
	var objs []pagestore.Object
	for i := 0; i < 3; i++ {
		x := float64(10 * i)
		objs = append(objs, pagestore.Object{Seg: geom.Segment{A: geom.V(x, 0, 0), B: geom.V(x+1, 0, 0)}, Radius: 0.1})
	}
	store := pagestore.NewStore(objs)
	box := geom.AABB{Min: geom.V(-1, -1, -1), Max: geom.V(12, 1, 1)}
	for _, c := range []struct {
		name   string
		result []pagestore.ObjectID
		subset bool
		fail   bool
	}{
		{"exact", []pagestore.ObjectID{1, 0}, false, false},
		{"missing", []pagestore.ObjectID{0}, false, true},
		{"missing allowed", []pagestore.ObjectID{0}, true, false},
		{"extra", []pagestore.ObjectID{0, 1, 2}, false, true},
		{"extra in subset mode", []pagestore.ObjectID{0, 2}, true, true},
	} {
		var ck checks
		bruteForce(store, []sample{{label: c.name, region: box, result: c.result, subset: c.subset}}, &ck)
		if got := !ck.ok(); got != c.fail {
			t.Errorf("%s: failed = %v, want %v (%v)", c.name, got, c.fail, ck.failures)
		}
	}
}
