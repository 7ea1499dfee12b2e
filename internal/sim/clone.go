package sim

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

// Clone returns an independent copy: the bucket array is a value field,
// so one flat copy shares nothing with h.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	c := *h
	return &c
}
