package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// diffPercentiles are the ranks the differential tests compare, ascending.
var diffPercentiles = []float64{0, 1, 50, 90, 99, 99.9, 100}

// edgeSamples are the adversarial values: zero, one, every bucket-edge
// power of two from 2^5 to 2^41 with its neighbours, overflow-bucket
// values, and the largest representable Duration.
func edgeSamples() []Duration {
	out := []Duration{0, 1}
	for k := 5; k <= 41; k++ {
		v := Duration(1) << k
		out = append(out, v-1, v, v+1)
	}
	return append(out, 1<<histTopBits, 3<<histTopBits, math.MaxInt64)
}

// withinBound reports whether a bucketed percentile est honours the
// documented bound against the exact one: within 2^-6 relative for
// samples below 2^40 ps, and inside [2^40, max] for overflow samples.
func withinBound(est, exact, max Duration) bool {
	if exact >= 1<<histTopBits {
		return est >= 1<<histTopBits && est <= max
	}
	diff := est - exact
	if diff < 0 {
		diff = -diff
	}
	return float64(diff) <= float64(exact)/histSub
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// diffCheck feeds one stream to the bounded and the exact recorder and
// reports the first disagreement, or "" when they agree.
func diffCheck(stream []Duration) string {
	h, s := NewHistogram(), NewSamples()
	for _, d := range stream {
		h.Add(d)
		s.Add(d)
	}
	switch {
	case h.Count() != s.Count():
		return "Count"
	case h.Sum() != s.Sum():
		return "Sum"
	case h.Mean() != s.Mean():
		return "Mean"
	case h.Min() != s.Min():
		return "Min"
	case h.Max() != s.Max():
		return "Max"
	case !relClose(h.CoefficientOfVariation(), s.CoefficientOfVariation(), 1e-9):
		return "CoV"
	}
	prev := Duration(-1)
	for _, p := range diffPercentiles {
		est := h.Percentile(p)
		if !withinBound(est, s.Percentile(p), s.Max()) {
			return "Percentile bound"
		}
		if est < prev {
			return "Percentile monotonicity"
		}
		prev = est
	}
	return ""
}

// TestHistogramMatchesSamplesQuick runs random streams, shifted so they
// span the resolved range and reach the overflow bucket.
func TestHistogramMatchesSamplesQuick(t *testing.T) {
	f := func(raw []uint32, shift uint8) bool {
		stream := make([]Duration, len(raw))
		for i, v := range raw {
			stream[i] = Duration(uint64(v) << (shift % 17))
		}
		if msg := diffCheck(stream); msg != "" {
			t.Logf("%s disagrees on %d samples (shift %d)", msg, len(stream), shift%17)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramMatchesSamplesLong runs one long log-uniform stream, where
// running-moment drift and percentile ranks deep in the buckets show.
func TestHistogramMatchesSamplesLong(t *testing.T) {
	r := NewRNG(7)
	stream := make([]Duration, 200000)
	for i := range stream {
		stream[i] = Duration(r.Uint64n(1 << uint(1+r.Intn(42))))
	}
	if msg := diffCheck(stream); msg != "" {
		t.Fatalf("%s disagrees", msg)
	}
}

// TestHistogramMatchesSamplesEdges runs the adversarial values as one
// stream, each alone, each as a constant run, and each mixed with a
// nearby population.
func TestHistogramMatchesSamplesEdges(t *testing.T) {
	edges := edgeSamples()
	if msg := diffCheck(edges); msg != "" {
		t.Fatalf("all edges: %s disagrees", msg)
	}
	for _, v := range edges {
		near := []Duration{v, v, v}
		for i := Duration(1); i < 100 && v <= math.MaxInt64-i; i++ {
			near = append(near, v+i)
		}
		for name, stream := range map[string][]Duration{
			"alone": {v},
			"const": {v, v, v, v, v},
			"near":  near,
		} {
			if msg := diffCheck(stream); msg != "" {
				t.Errorf("%s %d: %s disagrees", name, v, msg)
			}
		}
	}
}

// TestBucketOfCoversEdges checks every resolved bucket's midpoint maps
// back to that bucket and lies within its 2^-6 relative width.
func TestBucketOfCoversEdges(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		mid := bucketMid(i)
		if got := bucketOf(mid); got != i {
			t.Fatalf("bucketOf(bucketMid(%d)=%d) = %d", i, mid, got)
		}
	}
	for _, v := range edgeSamples() {
		b := bucketOf(v)
		if (b == histBuckets) != (v >= 1<<histTopBits) {
			t.Fatalf("bucketOf(%d) = %d: overflow misclassified", v, b)
		}
	}
}

func TestHistogramFootprintAndAllocFree(t *testing.T) {
	if size := unsafe.Sizeof(histBlock{}); size > 20<<10 {
		t.Fatalf("a fresh Histogram is %d B, want ≤ 20 KB", size)
	}
	// AllocsPerRun counts every malloc in the process, so the whole
	// measurement (fresh histogram, same samples) is repeated up to three
	// times and the minimum is checked.
	measure := func() float64 {
		h := NewHistogram()
		v := Duration(1)
		return testing.AllocsPerRun(1, func() {
			for i := 0; i < 1<<16; i++ {
				h.Add(v)
				v = (v*3 + 1) & (1<<45 - 1)
			}
		})
	}
	allocs := measure()
	for attempt := 1; attempt < 3 && allocs != 0; attempt++ {
		allocs = min(allocs, measure())
	}
	if allocs != 0 {
		t.Fatalf("Add made %.0f allocations over 2^16 samples (minimum of 3 attempts), want 0", allocs)
	}
}

func TestHistogramNegativeSamplePanics(t *testing.T) {
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "negative latency sample -5") {
			t.Fatalf("recovered %v, want a negative-sample panic", r)
		}
	}()
	NewHistogram().Add(-5)
}
