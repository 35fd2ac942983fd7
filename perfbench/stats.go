package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile needs beyond
// it: a p90 needs at least 100 samples, a p99 at least 1000.
const minBeyond = 10

// supported reports whether n samples carry at least minBeyond samples
// beyond the p-th percentile (0 < p < 100).
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond
}

// quantile returns the Harrell–Davis estimate of the p-th percentile
// (0 < p < 100) of the samples: a Beta-weighted mean of all order
// statistics. Response times on the virtual clock are sums of whole seeks
// and page transfers, so their nearest-rank percentiles jump from one
// cluster to the next between inputs; the weighted mean moves smoothly
// with the distribution instead. The input is not modified; empty input
// yields 0.
func quantile(samples []float64, p float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n == 1 {
		return sorted[0]
	}
	q := p / 100
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var sum float64
	prev := 0.0
	for i := 1; i <= n; i++ {
		cur := regIncBeta(a, b, float64(i)/float64(n))
		sum += (cur - prev) * sorted[i-1]
		prev = cur
	}
	return sum
}

// durationsMS converts durations to float milliseconds for quantile.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated with the continued fraction of Numerical Recipes §6.4.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a + b)
	lb, _ := math.Lgamma(a)
	lc, _ := math.Lgamma(b)
	front := math.Exp(la - lb - lc + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete beta continued fraction by the modified
// Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 10000
		eps     = 1e-14
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c, d := 1.0, 1-qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// fold is a word-wise FNV-1a accumulator: the behaviour fingerprint every
// workload folds its virtual-clock outputs into.
type fold uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newFold() fold { return fnvOffset }

// add folds each value into the fingerprint, in order.
func (f *fold) add(vs ...int64) {
	h := uint64(*f)
	for _, v := range vs {
		h = (h ^ uint64(v)) * fnvPrime
	}
	*f = fold(h)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
