package main

import (
	"math"
	"sort"
)

// Metric is one named measurement as the benchmark emits it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics and refuses a name emitted twice, so the
// "every metric exactly once" contract is enforced where metrics are made.
type metricSet map[string]Metric

func (m metricSet) put(name string, v float64, unit string) {
	if _, dup := m[name]; dup {
		panic("benchmark: metric " + name + " emitted twice")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // JSON has no NaN/Inf; a degenerate ratio reads as 0
	}
	m[name] = Metric{Value: v, Unit: unit}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile by the exclusive method —
// the one Python's statistics.quantiles(values, n=4) uses, which is what the
// driver's acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		i := int(math.Floor(pos))
		frac := pos - float64(i)
		switch {
		case i < 1:
			return s[0]
		case i >= n:
			return s[n-1]
		}
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// iqr is the distance between the first and the third quartile.
func iqr(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return q3 - q1
}

// iqrShare is the interquartile distance as a share of the median.
func iqrShare(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	return iqr(xs) / math.Abs(med)
}

// tail returns the highest percentile that still has at least ten samples
// beyond it, and which percentile that is. With fewer than twenty samples no
// percentile above the median qualifies, so the median is reported as q=50.
func tail(xs []float64) (value, q float64) {
	n := len(xs)
	if n < 20 {
		return median(xs), 50
	}
	s := sorted(xs)
	i := n - 11 // ten samples lie strictly beyond index n-11
	return s[i], 100 * float64(i+1) / float64(n)
}

// percentile is the nearest-rank percentile (p in 0..100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
