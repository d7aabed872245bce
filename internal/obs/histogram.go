package obs

import (
	"math"
	"math/bits"
)

// NumBuckets is the fixed number of log2 latency buckets. Bucket 0
// holds observations in [0, 1) virtual µs; bucket i (i ≥ 1) holds
// [2^(i-1), 2^i). The top bucket additionally absorbs (clamps) every
// observation at or beyond its lower bound — about 67 virtual seconds —
// with the overflow counted separately so a saturated histogram is
// visible as such.
const NumBuckets = 28

// BucketUpperMicros returns the exclusive upper bound of bucket i in
// virtual microseconds: 1 for bucket 0, 2^i above. The boundaries are
// pure powers of two — no seed, clock, or platform dependence — so two
// runs always bucket identically.
func BucketUpperMicros(i int) float64 {
	if i <= 0 {
		return 1
	}
	return math.Ldexp(1, i)
}

// bucketIndex places a value. Negative values count as zero; values at
// or beyond the top bucket's lower bound clamp into it.
func bucketIndex(v float64) (idx int, clamped bool) {
	if v < 1 {
		return 0, false
	}
	idx = bits.Len64(uint64(v)) // 1 + floor(log2(floor(v)))
	if idx >= NumBuckets {
		return NumBuckets - 1, true
	}
	return idx, false
}

// Histogram is a fixed-bucket log2 latency histogram over virtual
// microseconds. The zero value is ready to use. Like the recorder that
// holds it, a histogram belongs to one goroutine at a time and takes
// no locks. All methods are safe on a nil receiver (a nil histogram is
// an empty one), which is what makes the disabled-observability fast
// path free of conditionals at call sites.
type Histogram struct {
	counts  [NumBuckets]uint64
	total   uint64
	sum     float64
	max     float64
	clamped uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx, clamped := bucketIndex(v)
	h.counts[idx]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if clamped {
		h.clamped++
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the arithmetic mean (0 with no observations).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest observed value, tracked exactly (clamping
// affects only the bucket, never Max).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Clamped returns how many observations landed at or beyond the top
// bucket's lower bound.
func (h *Histogram) Clamped() uint64 {
	if h == nil {
		return 0
	}
	return h.clamped
}

// Buckets returns a copy of the per-bucket counts.
func (h *Histogram) Buckets() [NumBuckets]uint64 {
	if h == nil {
		return [NumBuckets]uint64{}
	}
	return h.counts
}

// Quantile returns an upper-bound estimate of the p-quantile (p in
// [0,1]): the upper boundary of the bucket holding the rank-⌈p·n⌉
// observation, capped at the exact Max so an estimate never exceeds an
// observed value. Zero observations yield 0.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i == NumBuckets-1 {
				// The top bucket clamps: its only honest upper bound
				// is the exact tracked max.
				return h.max
			}
			return math.Min(BucketUpperMicros(i), h.max)
		}
	}
	return h.max
}

// P50, P90 and P99 are the percentile accessors the latency tables use.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }
func (h *Histogram) P90() float64 { return h.Quantile(0.90) }
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Metrics writes the histogram's summary rows into out, each named
// prefix plus one of count, p50, p90, p99, max and mean.
func (h *Histogram) Metrics(prefix string, out map[string]float64) {
	out[prefix+"count"] = float64(h.Count())
	out[prefix+"p50"] = h.P50()
	out[prefix+"p90"] = h.P90()
	out[prefix+"p99"] = h.P99()
	out[prefix+"max"] = h.Max()
	out[prefix+"mean"] = h.Mean()
}
