package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// median returns the median of values (the mean of the two middle values
// for an even count), without modifying values.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// subBits sets the latency histogram's resolution: 2^subBits buckets per
// power of two of nanoseconds, so a bucket is at most 1/256 of its values
// wide. Below 2^(subBits+1) ns every nanosecond has its own bucket.
const subBits = 8

// histBuckets covers latencies below 2^39 ns (about 9 minutes); longer
// ones land in the last bucket.
const histBuckets = (40 - subBits) << subBits

// hist is a log-linear latency histogram: fixed memory however long the
// run, and no allocation per recorded value.
type hist struct {
	counts [histBuckets]uint32
	n      int64
}

func bucketOf(ns int64) int {
	if ns < 1<<subBits {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - subBits - 1
	b := (e+1)<<subBits + int(ns>>e) - 1<<subBits
	return min(b, histBuckets-1)
}

// bucketBounds returns the half-open nanosecond range of bucket b.
func bucketBounds(b int) (lo, hi int64) {
	if b < 1<<subBits {
		return int64(b), int64(b) + 1
	}
	e := b>>subBits - 1
	m := int64(b&(1<<subBits-1) + 1<<subBits)
	return m << e, (m + 1) << e
}

func (h *hist) add(d time.Duration) {
	h.counts[bucketOf(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// percentileUS returns the nearest-rank p-th percentile in microseconds,
// interpolated linearly inside the bucket that holds the rank.
func (h *hist) percentileUS(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	var seen int64
	for b, c := range h.counts {
		if c == 0 || seen+int64(c) < rank {
			seen += int64(c)
			continue
		}
		lo, hi := bucketBounds(b)
		frac := float64(rank-seen) / float64(c)
		return (float64(lo) + frac*float64(hi-lo)) / 1e3
	}
	return 0 // unreachable: the counts sum to n
}
