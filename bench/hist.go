package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is the benchmark's latency histogram: nanosecond samples in a
// log-linear layout. Values below histSub are counted exactly; above that
// every power of two is cut into histSub equal sub-buckets, so a bucket is
// never wider than 1/histSub of its lower bound and the midpoint reported
// for it is within 0.4 % of any sample it holds (the ≤ 1 % contract, with
// margin). The old harness stored whole microseconds, which turned a 1.4 µs
// p50 into "1"; this one keeps every digit the clock gives.
//
// A hist belongs to one goroutine while it records; merge combines the
// clients' histograms after they have stopped.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    float64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxExp bounds the range: samples up to 2^(histMaxExp+histSubBits+1)
	// ns (≈ 4.7 hours) have their own bucket, larger ones share the last.
	histMaxExp  = 36
	histBuckets = (histMaxExp + 2) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - histSubBits - 1
	if exp > histMaxExp {
		return histBuckets - 1
	}
	return (exp+1)*histSub + int(uint64(v)>>uint(exp)) - histSub
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	exp := i/histSub - 1
	lo := float64(uint64(histSub+i%histSub) << uint(exp))
	return lo + float64(uint64(1)<<uint(exp))/2 - 0.5
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
	h.sum += float64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// minBeyond is the number of samples that must lie at or beyond a percentile
// before it is reported: the 99th needs 1000 samples, the median 20.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) in nanoseconds. ok is
// false when fewer than minBeyond samples lie beyond it — a "p99" that is
// the fourth-worst sample is not a measurement.
func (h *hist) percentile(p float64) (ns float64, ok bool) {
	if float64(h.n)*(1-p/100) < minBeyond {
		return 0, false
	}
	return h.quantile(p), true
}

// quantile is percentile without the sample-count rule, for the few things
// measured a few dozen times a run (structural ops), which are reported with
// their count instead.
func (h *hist) quantile(p float64) float64 {
	rank := max(uint64(math.Ceil(float64(h.n)*p/100)), 1)
	var seen uint64
	for i, c := range h.counts {
		if seen += c; seen >= rank {
			return histValue(i)
		}
	}
	return 0
}

// median, quartiles and cv are the small-sample statistics the reports use
// (sub-window values, repeated set-ups).

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles placed as Python's
// statistics.quantiles(v, n=4) places them (exclusive method), so the number
// printed here is the number the acceptance procedure computes.
func iqrShare(v []float64) float64 {
	n := len(v)
	med := median(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

func cv(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	m := sum / float64(len(v))
	if m == 0 {
		return 0
	}
	var ss float64
	for _, x := range v {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(v)-1)) / m
}
