// Package pram is a hot-package fixture: every map[uint64]-keyed field
// form must be flagged; non-uint64 keys and local maps must not.
package pram

type rowTime int64

type lineIndex = uint64

type wearMap map[uint64]uint64

type Device struct {
	inFlight map[uint64]rowTime   // want `map\[uint64\]-keyed field inFlight`
	wear     map[uint64]uint64    // want `map\[uint64\]-keyed field wear`
	named    wearMap              // want `map\[uint64\]-keyed field named`
	aliased  map[lineIndex]bool   // want `map\[uint64\]-keyed field aliased`
	byDev    map[struct{ d int }]bool
	byStr    map[string]uint64
	byU32    map[uint32]uint64
	legacy   map[uint64]bool //lint:allow zeroalloc cold path, bounded
}

type inner struct {
	nested struct {
		deep map[uint64]int // want `map\[uint64\]-keyed field deep`
	}
}

func Local() int {
	scratch := map[uint64]int{} // locals are fine: not persistent state
	scratch[1] = 2
	return scratch[1]
}
