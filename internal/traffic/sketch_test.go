package traffic

import (
	"math"
	"sort"
	"testing"

	"wormhole/internal/rng"
)

func TestSketchExactBelow64(t *testing.T) {
	var s Sketch
	for v := 0; v < 64; v++ {
		for k := 0; k <= v%3; k++ {
			s.Add(v)
		}
	}
	if s.Min() != 0 || s.Max() != 63 {
		t.Fatalf("min/max = %d/%d", s.Min(), s.Max())
	}
	// Build the exact multiset and compare a few quantiles exactly.
	var xs []int
	for v := 0; v < 64; v++ {
		for k := 0; k <= v%3; k++ {
			xs = append(xs, v)
		}
	}
	sort.Ints(xs)
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		target := int(p*float64(len(xs)) + 0.5)
		if target < 1 {
			target = 1
		}
		if target > len(xs) {
			target = len(xs)
		}
		want := xs[target-1]
		if got := s.Quantile(p); got != float64(want) {
			t.Errorf("p=%g: got %g, want %d", p, got, want)
		}
	}
}

func TestSketchRelativeError(t *testing.T) {
	r := rng.New(9)
	var s Sketch
	var xs []float64
	for i := 0; i < 50_000; i++ {
		// Latency-shaped data: a bulk plus a heavy tail.
		v := 20 + r.Intn(60)
		if r.Intn(10) == 0 {
			v = 100 + r.Intn(5000)
		}
		s.Add(v)
		xs = append(xs, float64(v))
	}
	sort.Float64s(xs)
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		got := s.Quantile(p)
		want := xs[int(p*float64(len(xs)))]
		if relErr := math.Abs(got-want) / want; relErr > 1.0/subBuckets {
			t.Errorf("p=%g: sketch %g vs exact %g (rel err %.3f > %.3f)",
				p, got, want, relErr, 1.0/subBuckets)
		}
	}
	// Mean is exact.
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	if got, want := s.Mean(), sum/float64(len(xs)); math.Abs(got-want) > 1e-9 {
		t.Errorf("mean %g != %g", got, want)
	}
}

func TestSketchBucketRoundTrip(t *testing.T) {
	// bucketValue must land back in its own bucket, and bucketOf must be
	// monotone — both break silently if the index math drifts.
	prev := -1
	for v := 0; v < 1_000_000; v = v*9/8 + 1 {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
		if rb := bucketOf(bucketValue(b)); rb != b {
			t.Fatalf("bucket %d (v=%d): representative %d maps to bucket %d",
				b, v, bucketValue(b), rb)
		}
	}
	// Huge values stay in range and round-trip instead of overflowing.
	if b := bucketOf(math.MaxInt64); b >= numBuckets || bucketOf(bucketValue(b)) != b {
		t.Fatalf("MaxInt64 → bucket %d (of %d), representative round-trips to %d",
			b, numBuckets, bucketOf(bucketValue(b)))
	}
}

func TestSketchMerge(t *testing.T) {
	r := rng.New(4)
	var a, b, both Sketch
	for i := 0; i < 10_000; i++ {
		v := r.Intn(500)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
		both.Add(v)
	}
	a.Merge(&b)
	if a.Count() != both.Count() || a.Mean() != both.Mean() ||
		a.Min() != both.Min() || a.Max() != both.Max() {
		t.Fatal("merge aggregates differ from single-stream sketch")
	}
	for _, p := range []float64{0.1, 0.5, 0.95} {
		if a.Quantile(p) != both.Quantile(p) {
			t.Fatalf("p=%g: merged %g != single %g", p, a.Quantile(p), both.Quantile(p))
		}
	}
}

// TestSketchEdgeCases pins the boundary behavior the streaming paths
// rely on: an empty sketch reports zeros, negative samples clamp to
// zero, out-of-range quantile levels clamp to the extreme ranks, a
// bucket's representative is clamped into the observed [Min, Max], and
// Merge handles empty operands on either side.
func TestSketchEdgeCases(t *testing.T) {
	var empty Sketch
	if empty.Count() != 0 || empty.Mean() != 0 || empty.Quantile(0.5) != 0 || empty.Min() != 0 || empty.Max() != 0 {
		t.Fatalf("empty sketch: n=%d mean=%g p50=%g min=%d max=%d",
			empty.Count(), empty.Mean(), empty.Quantile(0.5), empty.Min(), empty.Max())
	}

	var neg Sketch
	neg.Add(-5)
	if neg.Min() != 0 || neg.Max() != 0 || neg.Quantile(1) != 0 {
		t.Fatalf("negative sample not clamped: min=%d max=%d", neg.Min(), neg.Max())
	}

	var s Sketch
	for _, v := range []int{3, 5, 9} {
		s.Add(v)
	}
	if lo, hi := s.Quantile(-1), s.Quantile(2); lo != 3 || hi != 9 {
		t.Fatalf("quantile(-1)=%g quantile(2)=%g, want 3 and 9", lo, hi)
	}

	// 1024 and 1055 share a bucket whose representative, 1040, lies
	// above the first and below the second; a lone sample must still
	// read back exactly.
	for _, v := range []int{1024, 1055} {
		var one Sketch
		one.Add(v)
		if got := one.Quantile(0.5); got != float64(v) {
			t.Errorf("single sample %d: p50 = %g", v, got)
		}
	}

	var into Sketch
	into.Merge(&empty)
	if into.Count() != 0 {
		t.Fatal("merging an empty sketch added samples")
	}
	into.Merge(&s)
	if into.Count() != 3 || into.Min() != 3 || into.Max() != 9 || into.Mean() != s.Mean() {
		t.Fatalf("merge into empty: n=%d min=%d max=%d", into.Count(), into.Min(), into.Max())
	}
}
