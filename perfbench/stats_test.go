package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false}, {100, 90, true},
		{999, 99, false}, {1000, 99, true},
		{19, 50, false}, {20, 50, true},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1, 1) = x; I_x(2, 1) = x²; I_x(1, 2) = 1-(1-x)²; symmetry
	// I_x(a, b) = 1 - I_{1-x}(b, a).
	for _, x := range []float64{0.01, 0.2, 0.5, 0.77, 0.99} {
		for _, c := range []struct{ a, b, want float64 }{
			{1, 1, x}, {2, 1, x * x}, {1, 2, 1 - (1-x)*(1-x)},
		} {
			if got := regIncBeta(c.a, c.b, x); math.Abs(got-c.want) > 1e-12 {
				t.Errorf("I_%g(%g,%g) = %g, want %g", x, c.a, c.b, got, c.want)
			}
		}
		a, b := 37.5, 1012.25
		if got, want := regIncBeta(a, b, x), 1-regIncBeta(b, a, 1-x); math.Abs(got-want) > 1e-9 {
			t.Errorf("symmetry at x=%g: %g vs %g", x, got, want)
		}
	}
	if regIncBeta(3, 4, 0) != 0 || regIncBeta(3, 4, 1) != 1 {
		t.Error("I_0 must be 0 and I_1 must be 1")
	}
}

func TestQuantileSmallInputs(t *testing.T) {
	if got := quantile(nil, 50); got != 0 {
		t.Errorf("empty = %g, want 0", got)
	}
	if got := quantile([]float64{7}, 99); got != 7 {
		t.Errorf("single = %g, want 7", got)
	}
	// Constant samples: the weights sum to one, so any quantile is the
	// constant.
	xs := []float64{3, 3, 3, 3, 3, 3}
	for _, p := range []float64{1, 50, 99} {
		if got := quantile(xs, p); math.Abs(got-3) > 1e-12 {
			t.Errorf("constant p%g = %g, want 3", p, got)
		}
	}
	// Symmetric samples have their median at the centre.
	if got := quantile([]float64{1, 2, 3, 4, 5}, 50); math.Abs(got-3) > 1e-12 {
		t.Errorf("median of 1..5 = %g, want 3", got)
	}
}

func TestQuantileDoesNotModifyInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	quantile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[4] != 3 {
		t.Errorf("input reordered: %v", xs)
	}
}

func TestQuantileTracksNearestRank(t *testing.T) {
	// On a large continuous sample the estimate stays within a small
	// fraction of the spread of the nearest-rank percentile.
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 10
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{50, 90, 99} {
		rank := int(math.Ceil(float64(len(sorted))*p/100)) - 1
		near := sorted[rank]
		if got := quantile(xs, p); math.Abs(got-near) > 0.03*near {
			t.Errorf("p%g = %g, nearest rank %g", p, got, near)
		}
	}
}

func TestQuantileIsSmoothAcrossClusters(t *testing.T) {
	// Samples on two atoms, as seek-quantized response times are: the
	// nearest-rank median jumps from one atom to the other when one sample
	// moves, the estimate moves by a fraction of the gap.
	mk := func(low int) []float64 {
		var xs []float64
		for i := 0; i < 1000; i++ {
			if i < low {
				xs = append(xs, 35)
			} else {
				xs = append(xs, 40)
			}
		}
		return xs
	}
	a, b := quantile(mk(499), 50), quantile(mk(501), 50)
	if a <= 35 || b >= 40 || math.Abs(a-b) > 0.5 {
		t.Errorf("medians across the atom boundary: %g then %g", a, b)
	}
}

func TestFoldOrderSensitive(t *testing.T) {
	f1, f2 := newFold(), newFold()
	f1.add(1, 2)
	f2.add(2, 1)
	if f1 == f2 {
		t.Error("fold ignores order")
	}
	f3 := newFold()
	f3.add(1)
	f3.add(2)
	if f1 != f3 {
		t.Error("fold depends on how values are batched")
	}
}
