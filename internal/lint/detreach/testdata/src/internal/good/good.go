// Package good must produce no nodeterminism diagnostics.
package good

import "time"

// Deterministic hashing is fine.
func Mix(seed uint64) uint64 {
	seed ^= seed >> 30
	seed *= 0xbf58476d1ce4e5b9
	return seed ^ seed>>31
}

// Duration constants and formatting helpers from time do not touch the
// host clock; only the temporal entry points are flagged.
const tick = time.Millisecond

// WallClock demonstrates the escape hatch for a sanctioned exception.
func WallClock() int64 {
	return time.Now().UnixNano() //lint:allow detreach CLI progress meter only
}

// WallClockAbove demonstrates the directive on its own line.
func WallClockAbove() time.Time {
	//lint:allow detreach CLI progress meter only
	return time.Now()
}
