package main

import (
	"math"
	"sort"
)

// summary is how every repeated measurement is reported: the median with
// the quartiles and the sample count beside it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// spread is the interquartile distance as a share of the median, the
// quantity every bound is compared with.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile interpolates at position p·(n+1) of the sorted samples, the
// rule Python's statistics.quantiles uses, so a spread computed here and
// one computed from the printed values by a reviewer agree.
func quantile(sortedXs []float64, p float64) float64 {
	n := len(sortedXs)
	if n == 0 {
		return 0
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sortedXs[0]
	}
	if pos >= float64(n-1) {
		return sortedXs[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return sortedXs[lo] + frac*(sortedXs[lo+1]-sortedXs[lo])
}

func summarize(xs []float64) summary {
	s := sorted(xs)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 needs 1000 samples.
const minBeyond = 10

// percentile returns the p-th percentile (nearest rank) of xs, and false
// when fewer than minBeyond samples lie beyond it. A tail that thin is
// not reported.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(n) / 100))
	rank = min(max(rank, 1), n)
	return s[rank-1], n-rank >= minBeyond
}

// tail is percentile for metrics: 0 stands for "too few samples".
func tail(xs []float64, p float64) float64 {
	v, ok := percentile(xs, p)
	if !ok {
		return 0
	}
	return v
}
