package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile reports the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the two closest ranks (the convention of
// numpy.percentile's default). xs is not modified. An empty input reports
// NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// checker counts output checks. Every check is one attempted operation; a
// check that does not hold is one failed operation, so failed/attempted is
// the run's error rate.
type checker struct {
	attempted int
	failed    int
	// notes keeps the first few failure messages for the report.
	notes []string
}

// maxNotes bounds how many failure messages a run keeps.
const maxNotes = 20

// check records one check; format describes what was expected.
func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.notes) < maxNotes {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// errorRate is failed checks over checked operations.
func (c *checker) errorRate() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}
