// Package sim provides the deterministic simulation substrate used by every
// other package in the LightPC reproduction: a picosecond time base, a
// seeded pseudo-random source, and small statistics helpers.
//
// All simulated latencies in the repository are expressed as sim.Duration
// (picoseconds) so that GHz-scale device timing and millisecond-scale OS
// procedures share one time base without rounding.
package sim

import "fmt"

// Time is an absolute simulation timestamp in picoseconds since simulation
// start. The zero value is the beginning of simulated time.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Convenient duration units.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the timestamp d after t.
//
//lightpc:zeroalloc
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
//
//lightpc:zeroalloc
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
//
//lightpc:zeroalloc
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
//
//lightpc:zeroalloc
func (t Time) After(u Time) bool { return t > u }

// Max returns the later of a and b.
//
//lightpc:zeroalloc
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
//
//lightpc:zeroalloc
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Milliseconds reports d as floating-point milliseconds.
//
//lightpc:zeroalloc
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Microseconds reports d as floating-point microseconds.
//
//lightpc:zeroalloc
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Nanoseconds reports d as floating-point nanoseconds.
//
//lightpc:zeroalloc
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Seconds reports d as floating-point seconds.
//
//lightpc:zeroalloc
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String renders the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.2fns", d.Nanoseconds())
	case d < Millisecond:
		return fmt.Sprintf("%.2fus", d.Microseconds())
	case d < Second:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// String renders the timestamp as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// Cycles converts a cycle count at the given frequency (Hz) to a duration.
//
//lightpc:zeroalloc
func Cycles(n int64, hz float64) Duration {
	return Duration(float64(n) * 1e12 / hz)
}

// ToCycles converts a duration to cycles at the given frequency (Hz),
// rounding to nearest.
//
//lightpc:zeroalloc
func (d Duration) ToCycles(hz float64) int64 {
	return int64(float64(d)*hz/1e12 + 0.5)
}

// FromSeconds converts floating-point seconds into a Duration.
//
//lightpc:zeroalloc
func FromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// FromNanoseconds converts floating-point nanoseconds into a Duration.
//
//lightpc:zeroalloc
func FromNanoseconds(ns float64) Duration { return Duration(ns * float64(Nanosecond)) }
