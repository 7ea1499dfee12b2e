// Package pmemdimm is a hot-package fixture: an LRU tier's block index
// keyed by uint64 is flagged; the open-addressed slice index is not.
package pmemdimm

type lru struct {
	items map[uint64]int32 // want `map\[uint64\]-keyed field items`
	index []int32
}
