package sim

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"sort"
)

// Histogram geometry: log-linear buckets, 2^histSubBits sub-buckets per
// power of two. Samples below 2^(histSubBits+1) ps each get their own
// bucket; above that a bucket spans 2^e ps of values ≥ 2^(e+histSubBits),
// so any bucket's width is at most 2^-histSubBits of its values. Samples
// of 2^histTopBits ps (≈ 1.1 s) and more share one overflow bucket.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histTopBits = 40
	histBuckets = (histTopBits - histSubBits + 1) * histSub // overflow bucket excluded
)

// Histogram is the fixed-memory latency recorder of the device access
// paths (PSM reads and write acks, PMEM-DIMM reads). Its footprint is one
// ~18 KB allocation at construction; Add never allocates and Clone is a
// flat copy.
//
// Count, Sum, Mean, Min and Max are exact. StdDev and CoefficientOfVariation
// come from running power sums kept in wide integers, so they are exact up
// to the final rounding and match Samples' to floating-point error.
// Percentile answers from the buckets: for a rank whose sample is below
// 2^40 ps the result is within 2^-7 (half a bucket, so inside the
// documented 2^-6 bound) of that sample; a rank in the overflow bucket
// answers Max. Results are clamped to [Min, Max]. Samples is the exact
// recorder for outputs that print percentiles.
type Histogram struct {
	n        int
	min, max Duration
	// s1 and s2 are Σx and Σx² as little-endian 128- and 192-bit
	// integers: wide enough for 2^64 samples of any Duration, and
	// cheaper per sample than a running mean's division.
	s1     [2]uint64
	s2     [3]uint64
	counts [histBuckets + 1]uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one sample. A negative sample is a simulator bug and panics.
//
//lightpc:zeroalloc
func (h *Histogram) Add(d Duration) {
	if d < 0 {
		panic(negativeSample(d))
	}
	h.counts[bucketOf(d)]++
	if h.n == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.n++
	x := uint64(d)
	var c uint64
	h.s1[0], c = bits.Add64(h.s1[0], x, 0)
	h.s1[1] += c
	hi, lo := bits.Mul64(x, x)
	h.s2[0], c = bits.Add64(h.s2[0], lo, 0)
	h.s2[1], c = bits.Add64(h.s2[1], hi, c)
	h.s2[2] += c
}

// negativeSample formats the panic message out of line, keeping Add's
// body small.
//
//go:noinline
func negativeSample(d Duration) string {
	return fmt.Sprintf("sim: negative latency sample %d ps", int64(d))
}

// bucketOf maps a non-negative sample to its bucket index.
//
//lightpc:zeroalloc
func bucketOf(d Duration) int {
	v := uint64(d)
	if v >= 1<<histTopBits {
		return histBuckets
	}
	e := bits.Len64(v) - (histSubBits + 1)
	if e < 0 {
		e = 0
	}
	return e<<histSubBits + int(v>>e)
}

// bucketMid reports the midpoint of a resolved (non-overflow) bucket.
func bucketMid(i int) Duration {
	e := i>>histSubBits - 1
	if e <= 0 {
		return Duration(i) // width-1 bucket: the value itself
	}
	low := uint64(i&(histSub-1)|histSub) << e
	return Duration(low + 1<<(e-1))
}

// Count reports the number of samples.
func (h *Histogram) Count() int { return h.n }

// Sum reports the total of all samples, wrapping as a Duration sum does.
func (h *Histogram) Sum() Duration { return Duration(h.s1[0]) }

// Mean reports the average sample, or zero when empty.
func (h *Histogram) Mean() Duration {
	if h.n == 0 {
		return 0
	}
	return h.Sum() / Duration(h.n)
}

// Min reports the smallest sample, or zero when empty.
func (h *Histogram) Min() Duration { return h.min }

// Max reports the largest sample, or zero when empty.
func (h *Histogram) Max() Duration { return h.max }

// Percentile reports the p-th percentile (0 ≤ p ≤ 100) within the bound
// documented on Histogram, or zero when empty. p ≤ 0 and p ≥ 100 answer
// the exact Min and Max.
func (h *Histogram) Percentile(p float64) Duration {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(percentileRank(p, h.n))
	var seen uint64
	for i, c := range h.counts[:histBuckets] {
		seen += c
		if seen > rank {
			return min(max(bucketMid(i), h.min), h.max)
		}
	}
	return h.max // the rank falls in the overflow bucket
}

// StdDev reports the population standard deviation about the integer
// Mean c, as Samples.StdDev computes it, from Σ(x-c)² = Σx² - 2cΣx + nc²
// evaluated exactly.
func (h *Histogram) StdDev() Duration {
	if h.n == 0 {
		return 0
	}
	c := big.NewInt(int64(h.Mean()))
	acc := new(big.Int).Mul(c, c)
	acc.Mul(acc, big.NewInt(int64(h.n)))
	acc.Sub(acc, new(big.Int).Lsh(new(big.Int).Mul(c, wide(h.s1[:])), 1))
	acc.Add(acc, wide(h.s2[:]))
	sq, _ := new(big.Float).SetInt(acc).Float64()
	return Duration(math.Sqrt(sq / float64(h.n)))
}

// wide converts a little-endian multi-word unsigned integer.
func wide(words []uint64) *big.Int {
	z := new(big.Int)
	for i := len(words) - 1; i >= 0; i-- {
		z.Lsh(z, 64).Or(z, new(big.Int).SetUint64(words[i]))
	}
	return z
}

// CoefficientOfVariation reports stddev/mean, a unitless spread measure.
func (h *Histogram) CoefficientOfVariation() float64 {
	return cov(h.StdDev(), h.Mean())
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(99), h.Max())
}

// percentileRank is the 0-based sorted-sample index both recorders answer
// Percentile(p) with, for 0 < p < 100.
func percentileRank(p float64, n int) int { return int(p / 100 * float64(n-1)) }

func cov(stddev, mean Duration) float64 {
	if mean == 0 {
		return 0
	}
	return float64(stddev) / float64(mean)
}

// Samples is the exact recorder: it keeps every sample, so its
// percentiles are the samples themselves. Memory grows with the sample
// count; it serves outputs that print exact percentiles (the Fig 2b
// table) and tests that check Histogram against it.
type Samples struct {
	samples []Duration
	sorted  bool
	sum     Duration
}

// NewSamples returns an empty exact recorder.
func NewSamples() *Samples { return &Samples{} }

// Add records one sample.
func (s *Samples) Add(d Duration) {
	s.samples = append(s.samples, d)
	s.sum += d
	s.sorted = false
}

// Count reports the number of samples.
func (s *Samples) Count() int { return len(s.samples) }

// Sum reports the total of all samples.
func (s *Samples) Sum() Duration { return s.sum }

// Mean reports the average sample, or zero when empty.
func (s *Samples) Mean() Duration {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / Duration(len(s.samples))
}

// Percentile reports the p-th percentile (0 ≤ p ≤ 100), or zero when empty.
func (s *Samples) Percentile(p float64) Duration {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
		s.sorted = true
	}
	if p <= 0 {
		return s.samples[0]
	}
	if p >= 100 {
		return s.samples[n-1]
	}
	return s.samples[percentileRank(p, n)]
}

// Min reports the smallest sample, or zero when empty.
func (s *Samples) Min() Duration { return s.Percentile(0) }

// Max reports the largest sample, or zero when empty.
func (s *Samples) Max() Duration { return s.Percentile(100) }

// StdDev reports the population standard deviation of the samples.
func (s *Samples) StdDev() Duration {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := float64(s.Mean())
	var acc float64
	for _, x := range s.samples {
		d := float64(x) - mean
		acc += d * d
	}
	return Duration(math.Sqrt(acc / float64(n)))
}

// CoefficientOfVariation reports stddev/mean, a unitless spread measure used
// for the latency-determinism analyses (Fig 2b).
func (s *Samples) CoefficientOfVariation() float64 {
	return cov(s.StdDev(), s.Mean())
}

// Counter is a simple named tally used across device models.
type Counter struct {
	n uint64
}

// Inc adds one.
//
//lightpc:zeroalloc
func (c *Counter) Inc() { c.n++ }

// Addn adds n.
//
//lightpc:zeroalloc
func (c *Counter) Addn(n uint64) { c.n += n }

// Value reports the tally.
//
//lightpc:zeroalloc
func (c *Counter) Value() uint64 { return c.n }

// Ratio reports c / total, or 0 when total is zero.
func Ratio(c, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(c) / float64(total)
}
