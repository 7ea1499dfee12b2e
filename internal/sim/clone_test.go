package sim

import (
	"testing"

	"repro/internal/snapshot"
)

// TestCloneCompleteness pins the cloned structs' field lists: a new
// mutable field fails here until the Clone handles it.
func TestCloneCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, RNG{}, "s")
	snapshot.CheckCovered(t, Histogram{}, "n", "min", "max", "s1", "s2", "pages", "live")
}

// TestRNGCloneIndependence checks a cloned generator continues the same
// stream and then diverges independently.
func TestRNGCloneIndependence(t *testing.T) {
	r := NewRNG(42)
	r.Uint64()
	c := r.Clone()
	if a, b := r.Uint64(), c.Uint64(); a != b {
		t.Fatalf("clone diverged at the same position: %d != %d", a, b)
	}
	r.Uint64()
	c2 := r.Clone()
	if a, b := r.Uint64(), c2.Uint64(); a != b {
		t.Fatalf("re-clone diverged: %d != %d", a, b)
	}
}

// TestHistogramCloneIndependence checks a clone records independently of
// its source.
func TestHistogramCloneIndependence(t *testing.T) {
	h := NewHistogram()
	h.Add(10)
	h.Add(20)
	c := h.Clone()
	c.Add(30)
	if h.Count() != 2 || c.Count() != 3 {
		t.Fatalf("counts: source %d (want 2), clone %d (want 3)", h.Count(), c.Count())
	}
	if h.Sum() != 30 || c.Sum() != 60 {
		t.Fatalf("sums: source %v, clone %v", h.Sum(), c.Sum())
	}
}

// TestHistogramCloneMatchesSource clones mid-stream and feeds the clone
// the rest of the stream: it must answer every statistic exactly as a
// histogram that saw the whole stream, including in octaves the clone
// left out and allocated on first touch.
func TestHistogramCloneMatchesSource(t *testing.T) {
	r := NewRNG(11)
	for trial := 0; trial < 50; trial++ {
		whole, part := NewHistogram(), NewHistogram()
		n := 1 + r.Intn(400)
		cut := r.Intn(n + 1)
		var c *Histogram
		for i := 0; i < n; i++ {
			if i == cut {
				c = part.Clone()
			}
			v := Duration(r.Uint64() >> (r.Intn(64) | 18))
			whole.Add(v)
			if c != nil {
				c.Add(v)
			} else {
				part.Add(v)
			}
		}
		if c == nil {
			c = part.Clone()
		}
		if c.Count() != whole.Count() || c.Sum() != whole.Sum() ||
			c.Min() != whole.Min() || c.Max() != whole.Max() || c.StdDev() != whole.StdDev() {
			t.Fatalf("trial %d: clone %v, whole %v", trial, c, whole)
		}
		for _, p := range diffPercentiles {
			if got, want := c.Percentile(p), whole.Percentile(p); got != want {
				t.Fatalf("trial %d: p%v = %v, want %v", trial, p, got, want)
			}
		}
	}
}

// TestHistogramAllocShape pins where a histogram allocates: Add on a
// fresh histogram never does, a clone costs the same number of
// allocations whether one bucket or every octave is populated, and a
// clone's Add allocates only on the first sample in an octave it left
// out.
func TestHistogramAllocShape(t *testing.T) {
	fresh := NewHistogram()
	if a := testing.AllocsPerRun(100, func() { fresh.Add(Duration(fresh.Count()) << 20) }); a != 0 {
		t.Fatalf("Add on a fresh histogram: %.0f allocs, want 0", a)
	}

	one := NewHistogram()
	one.Add(5)
	all := NewHistogram()
	for v := Duration(1); v > 0; v <<= 1 {
		all.Add(v)
		all.Add(v + v/3)
	}
	a1 := testing.AllocsPerRun(100, func() { one.Clone() })
	aAll := testing.AllocsPerRun(100, func() { all.Clone() })
	if a1 != aAll {
		t.Fatalf("Clone allocs depend on populated buckets: one bucket %.0f, every octave %.0f", a1, aAll)
	}

	c := one.Clone()
	if a := testing.AllocsPerRun(100, func() { c.Add(6) }); a != 0 {
		t.Fatalf("clone Add in a cloned octave: %.0f allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { one.Clone().Add(1 << 30) }); a != a1+1 {
		t.Fatalf("Clone then Add in a new octave: %.0f allocs, want %.0f (the clone and its new page)", a, a1+1)
	}
}
