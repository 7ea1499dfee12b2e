package linetab

import "repro/internal/sim"

// Flight tracks in-progress operations as a bounded (key, end-time) set —
// the PRAM cooling windows (row -> program completion). The device's
// steady state is "nothing cooling", so Flight keeps a watermark of the
// latest end time ever recorded: once simulated time passes it, Busy and
// Drain answer with a single compare and never touch the table.
//
// The table itself is open-addressed with linear probing in a power-of-two
// arena. Inserting prunes expired entries (end ≤ now) in place before it
// grows, so a write-only phase — which never used to reach the map's
// read-side prune — stays at a fixed capacity with zero steady-state
// allocations. The arena grows only when the genuinely live entries exceed
// half its slots, which for a real device is bounded by the ratio of
// program latency to command occupancy.
//
// End times must be non-negative (sim.Time zero is the start of simulated
// time); keys are arbitrary.
type Flight struct {
	keys  []uint64
	ends  []int64 // end+1; 0 = empty slot
	live  int
	shift uint

	maxEnd sim.Time // latest end ever recorded; never decreases

	scratchK []uint64
	scratchE []int64
}

// flightMinSlots is the initial arena size: 64 slots carries twice the
// prune threshold the map-based device used.
const flightMinSlots = 64

// Quiet reports that nothing can be in flight at now: every end time ever
// recorded has passed. This is the hot-path fast case.
//
//lightpc:zeroalloc
func (f *Flight) Quiet(now sim.Time) bool { return now >= f.maxEnd }

// End reports the recorded end time for key. Expired entries may or may
// not still be present — callers compare the returned time against their
// own clock, exactly as the map-based device did.
//
//lightpc:zeroalloc
func (f *Flight) End(key uint64) (sim.Time, bool) {
	if f.live == 0 {
		return 0, false
	}
	mask := uint64(len(f.keys) - 1)
	for i := hash64(key) >> f.shift; ; i = (i + 1) & mask {
		stored := f.ends[i]
		if stored == 0 {
			return 0, false
		}
		if f.keys[i] == key {
			return sim.Time(stored - 1), true
		}
	}
}

// Busy reports whether key has an operation still in flight at now.
//
//lightpc:zeroalloc
func (f *Flight) Busy(now sim.Time, key uint64) bool {
	if f.Quiet(now) {
		return false
	}
	end, ok := f.End(key)
	return ok && end > now
}

// Drain reports when every in-flight operation has ended: the watermark is
// exact because entries are only dropped once their end has passed.
//
//lightpc:zeroalloc
func (f *Flight) Drain(now sim.Time) sim.Time { return sim.Max(now, f.maxEnd) }

// Set records that key's operation ends at end. now is the caller's clock,
// used to prune expired entries when the arena needs room.
//
//lightpc:zeroalloc
func (f *Flight) Set(now sim.Time, key uint64, end sim.Time) {
	if end < 0 {
		panic("linetab: negative Flight end time")
	}
	if end > f.maxEnd {
		f.maxEnd = end
	}
	if f.keys == nil {
		//lint:allow zeroalloc one-time lazy arena init on the first in-flight op
		f.keys = make([]uint64, flightMinSlots)
		//lint:allow zeroalloc one-time lazy arena init on the first in-flight op
		f.ends = make([]int64, flightMinSlots)
		f.shift = 64 - 6
	}
	mask := uint64(len(f.keys) - 1)
	for i := hash64(key) >> f.shift; ; i = (i + 1) & mask {
		if f.ends[i] == 0 {
			if (f.live+1)*2 > len(f.keys) {
				//lint:allow zeroalloc prune/grow is amortized; steady state stays at fixed capacity
				f.rebuild(now)
				mask = uint64(len(f.keys) - 1)
				// Re-probe: the arena was rewritten under us.
				for j := hash64(key) >> f.shift; ; j = (j + 1) & mask {
					if f.ends[j] == 0 {
						i = j
						break
					}
					if f.keys[j] == key {
						f.ends[j] = int64(end) + 1
						return
					}
				}
			}
			f.keys[i] = key
			f.ends[i] = int64(end) + 1
			f.live++
			return
		}
		if f.keys[i] == key {
			f.ends[i] = int64(end) + 1
			return
		}
	}
}

// rebuild prunes expired entries in place and, when the survivors still
// crowd the arena, doubles it.
func (f *Flight) rebuild(now sim.Time) {
	f.scratchK = f.scratchK[:0]
	f.scratchE = f.scratchE[:0]
	for i, stored := range f.ends {
		if stored != 0 && sim.Time(stored-1) > now {
			f.scratchK = append(f.scratchK, f.keys[i])
			f.scratchE = append(f.scratchE, stored)
		}
	}
	size := len(f.keys)
	for (len(f.scratchK)+1)*2 > size {
		size *= 2
	}
	if size != len(f.keys) {
		f.keys = make([]uint64, size)
		f.ends = make([]int64, size)
		shift := uint(64)
		for s := size; s > 1; s >>= 1 {
			shift--
		}
		f.shift = shift
	} else {
		for i := range f.ends {
			f.ends[i] = 0
		}
	}
	mask := uint64(size - 1)
	for j, k := range f.scratchK {
		i := hash64(k) >> f.shift
		for f.ends[i] != 0 {
			i = (i + 1) & mask
		}
		f.keys[i] = k
		f.ends[i] = f.scratchE[j]
	}
	f.live = len(f.scratchK)
}

// Len reports the number of entries currently held (live plus not yet
// pruned).
func (f *Flight) Len() int { return f.live }

// Cap reports the arena size in slots — the bounded-memory observable.
func (f *Flight) Cap() int { return len(f.keys) }
