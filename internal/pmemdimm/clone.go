package pmemdimm

import "slices"

// clone deep-copies an LRU tier: the index, the node arena, and the
// list/flush-epoch scalars. Both slices hold only live state, so the copy
// is proportional to the tier's occupancy, not its capacity.
func (l *lru) clone() *lru {
	if l == nil {
		return nil
	}
	return &lru{
		cap:   l.cap,
		index: slices.Clone(l.index),
		nodes: slices.Clone(l.nodes),
		head:  l.head,
		tail:  l.tail,
		stamp: l.stamp,
		dirty: l.dirty,
	}
}

// Clone returns a deep copy of the DIMM: RNG position, both LRU tier
// arenas, queue occupancy, stats, and the latency histogram. The energy
// meter pointer is carried over; platform forks rewire it afterwards.
func (d *DIMM) Clone() *DIMM {
	return &DIMM{
		cfg:       d.cfg,
		rng:       d.rng.Clone(),
		sram:      d.sram.clone(),
		dram:      d.dram.clone(),
		busyUntil: d.busyUntil,
		stats:     d.stats,
		em:        d.em,
		readLat:   d.readLat.Clone(),
	}
}

// Clone returns a deep copy of the block-layer view over a cloned DIMM.
func (s *SectorDevice) Clone() *SectorDevice {
	return &SectorDevice{
		dimm:        s.dimm.Clone(),
		SyscallCost: s.SyscallCost,
		QueueDepth:  s.QueueDepth,
		inflight:    slices.Clone(s.inflight),
		reads:       s.reads,
		writes:      s.writes,
	}
}
