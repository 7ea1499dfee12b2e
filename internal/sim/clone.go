package sim

import "math/bits"

// Clone support for snapshot forks. Cloned state must be deep enough that a
// fork and its source can run to completion independently without observing
// each other; everything here is plain value state.

// Clone returns an independent generator at the same stream position.
func (r *RNG) Clone() *RNG {
	if r == nil {
		return nil
	}
	return &RNG{s: r.s}
}

// Clone returns an independent copy holding only the octave pages that
// have samples, packed into one block: two allocations however many
// buckets are populated, and none of the empty octaves' space.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	c := &Histogram{n: h.n, min: h.min, max: h.max, s1: h.s1, s2: h.s2, live: h.live}
	if h.live == 0 {
		return c
	}
	block := make([][histSub]uint64, bits.OnesCount64(h.live))
	for o, pg := range h.pages {
		if h.live&(1<<o) != 0 {
			block[0] = *pg
			c.pages[o] = &block[0]
			block = block[1:]
		}
	}
	return c
}
