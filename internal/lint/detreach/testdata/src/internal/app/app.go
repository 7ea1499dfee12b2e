// Package app is the reporting side of the transitive-determinism fixture:
// it sits under internal/, so calls into fact-carrying impure functions are
// diagnosed here even though the impurity lives two packages away.
package app

import (
	"impuredep"
	"sort"
)

// UseWrapped reaches the wall clock through impuredep.Wraps -> Stamp.
func UseWrapped() int64 {
	return impuredep.Wraps() // want `transitively nondeterministic`
}

// UsesPure calls a clean dependency; no diagnostic.
func UsesPure(x int) int {
	return impuredep.Pure(x)
}

// Trusted vouches for its own determinism (e.g. the caller threads a
// virtual clock around it), so the impure callee is tolerated.
//
//lightpc:pure trusted for the fixture: result is discarded
func Trusted() {
	_ = impuredep.Stamp()
}

// FreezeOrder lets map iteration order escape: the returned slice ordering
// depends on the runtime's map hash seed.
func FreezeOrder(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m { // want `map keys collected into a slice that is never sorted`
		out = append(out, k)
	}
	return out
}

// CallsFreeze inherits FreezeOrder's impurity transitively.
func CallsFreeze(m map[int]int) []int {
	return FreezeOrder(m) // want `transitively nondeterministic`
}

// SortedOrder does the same walk but sorts before the order can escape,
// so it stays deterministic.
func SortedOrder(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// UsesSorted stays clean.
func UsesSorted(m map[int]int) []int {
	return SortedOrder(m)
}
