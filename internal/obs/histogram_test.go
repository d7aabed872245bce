package obs

import (
	"math"
	"math/rand"
	"testing"
)

func TestHistogramZeroObservations(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Errorf("empty histogram not empty: count=%d sum=%g max=%g", h.Count(), h.Sum(), h.Max())
	}
	for _, p := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if q := h.Quantile(p); q != 0 {
			t.Errorf("Quantile(%g) = %g on empty histogram, want 0", p, q)
		}
	}
	// The nil histogram behaves identically (the disabled-recorder path).
	var nilH *Histogram
	nilH.Observe(42) // must not panic
	if nilH.Count() != 0 || nilH.P99() != 0 {
		t.Error("nil histogram recorded something")
	}
}

func TestHistogramSingleBucket(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(100) // bucket [64,128)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	b := h.Buckets()
	idx, _ := bucketIndex(100)
	for i, c := range b {
		want := uint64(0)
		if i == idx {
			want = 100
		}
		if c != want {
			t.Errorf("bucket %d = %d, want %d", i, c, want)
		}
	}
	// All mass in one bucket: every quantile is the exact max, because
	// the bucket-boundary estimate is capped at the tracked max.
	for _, p := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		if q := h.Quantile(p); q != 100 {
			t.Errorf("Quantile(%g) = %g, want 100", p, q)
		}
	}
}

func TestHistogramTopBucketClamp(t *testing.T) {
	var h Histogram
	top := BucketUpperMicros(NumBuckets - 1)
	huge := []float64{top, 2 * top, 1e30}
	for _, v := range huge {
		h.Observe(v)
	}
	h.Observe(10) // one small value for contrast
	if got := h.Clamped(); got != uint64(len(huge)) {
		t.Errorf("clamped = %d, want %d", got, len(huge))
	}
	b := h.Buckets()
	if b[NumBuckets-1] != uint64(len(huge)) {
		t.Errorf("top bucket = %d, want %d", b[NumBuckets-1], len(huge))
	}
	if h.Max() != 1e30 {
		t.Errorf("max = %g, want exact 1e30 despite clamping", h.Max())
	}
	if q := h.Quantile(1); q != 1e30 {
		t.Errorf("Quantile(1) = %g, want the exact max", q)
	}
}

func TestHistogramNegativeAndTinyValues(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	h.Observe(0)
	h.Observe(0.5)
	if b := h.Buckets(); b[0] != 3 {
		t.Errorf("bucket 0 = %d, want 3 (negative, zero, sub-µs)", b[0])
	}
}

func TestBucketBoundariesDeterministicAcrossSeeds(t *testing.T) {
	// The boundaries are pure powers of two: no seed, clock, or run
	// state may move them. Observing the same values in any order (any
	// seed's shuffle) must land the same counts in the same buckets.
	values := make([]float64, 500)
	for i := range values {
		values[i] = math.Abs(float64(i*i%7919)) * 1.37
	}
	bucketsFor := func(seed int64) [NumBuckets]uint64 {
		shuffled := append([]float64(nil), values...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		var h Histogram
		for _, v := range shuffled {
			h.Observe(v)
		}
		return h.Buckets()
	}
	want := bucketsFor(1)
	for seed := int64(2); seed <= 5; seed++ {
		if got := bucketsFor(seed); got != want {
			t.Fatalf("seed %d bucketed differently:\n%v\n%v", seed, got, want)
		}
	}
	// And the boundary function itself is pure and monotone.
	for i := 1; i < NumBuckets; i++ {
		if BucketUpperMicros(i) != 2*BucketUpperMicros(i-1) {
			t.Errorf("boundary %d is not a doubling: %g vs %g", i, BucketUpperMicros(i), BucketUpperMicros(i-1))
		}
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	for v := 1.0; v <= 4096; v *= 2 {
		h.Observe(v)
	}
	p50, p90, p99, max := h.P50(), h.P90(), h.P99(), h.Max()
	if !(p50 <= p90 && p90 <= p99 && p99 <= max) {
		t.Errorf("quantiles out of order: p50=%g p90=%g p99=%g max=%g", p50, p90, p99, max)
	}
	if max != 4096 {
		t.Errorf("max = %g", max)
	}
}
