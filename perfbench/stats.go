package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest ladder percentile that leaves at least ten
// samples beyond it, with its label. With fewer than twenty samples no
// ladder entry qualifies and the maximum ("p100") is returned instead.
func tail(xs []float64) (float64, string) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if n*(100-p)/100 >= 10 {
			return quantile(xs, p/100), fmt.Sprintf("p%g", p)
		}
	}
	return quantile(xs, 1), "p100"
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never calls).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
