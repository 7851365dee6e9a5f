package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the two nearest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile is the highest whole percentile of n samples that still
// has at least ten samples beyond it, capped at 99 and floored at 50: p99
// once there are 1000 samples, p75 at 40.
func tailPercentile(n int) int {
	p := int(math.Floor(100 * (1 - 10/float64(n))))
	if p > 99 {
		p = 99
	}
	if p < 50 {
		p = 50
	}
	return p
}

// tail returns the tailPercentile of xs and which percentile it is.
func tail(xs []float64) (float64, int) {
	p := tailPercentile(len(xs))
	return quantile(xs, float64(p)/100), p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
