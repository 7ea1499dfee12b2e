package linetab

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// Differential lockstep tests: each paged structure runs the same randomized
// op stream as the plain Go map it replaced, and every observable (reads,
// counts, iteration contents, drain times) must agree at every step. These
// are the structures backing golden-pinned device models, so the shadows are
// exact re-statements of the old semantics, not approximations.

// TestTableDiff drives a table in the shape memctrl's tag array uses —
// values with stored zeros kept present — against the map it replaced.
func TestTableDiff(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		tb := NewTable()
		shadow := map[uint64]uint64{}
		for op := 0; op < 20000; op++ {
			idx := rng.Uint64n(1 << 13)
			if rng.Bool(0.02) {
				idx = rng.Uint64() // occasional far/spill index
			}
			if rng.Bool(0.7) {
				v := rng.Uint64n(100) // stored zeros must stay present
				tb.Set(idx, v)
				shadow[idx] = v
			}
			gv, gok := tb.Get(idx)
			sv, sok := shadow[idx]
			if gv != sv || gok != sok {
				t.Fatalf("seed %d op %d: Get(%d) = (%d, %v), shadow (%d, %v)", seed, op, idx, gv, gok, sv, sok)
			}
			if tb.Len() != len(shadow) {
				t.Fatalf("seed %d op %d: Len = %d, shadow %d", seed, op, tb.Len(), len(shadow))
			}
		}
		checkForEach(t, seed, tb, shadow)
	}
}

// TestCountersDiff drives a table as a read-modify-write counter with absent
// read as zero — the shape pram's wear table uses — against the map it
// replaced.
func TestCountersDiff(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		c := NewTable()
		shadow := map[uint64]uint64{}
		for op := 0; op < 20000; op++ {
			idx := rng.Uint64n(1 << 14)
			if rng.Bool(0.02) {
				idx = rng.Uint64() // occasional far/spill index
			}
			if rng.Bool(0.2) {
				c.Set(idx, idx%7) // overwrite, zero included
				shadow[idx] = idx % 7
			} else {
				n, _ := c.Get(idx)
				c.Set(idx, n+1)
				shadow[idx]++
			}
			if n, _ := c.Get(idx); n != shadow[idx] {
				t.Fatalf("seed %d op %d: count(%d) = %d, shadow %d", seed, op, idx, n, shadow[idx])
			}
		}
		if c.Len() != len(shadow) {
			t.Fatalf("seed %d: Len = %d, shadow %d", seed, c.Len(), len(shadow))
		}
		checkForEach(t, seed, c, shadow)
	}
}

// TestBitsDiff drives a presence-only table — the shape psm's poison set
// uses — against the map[uint64]bool it replaced.
func TestBitsDiff(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		b := NewTable()
		shadow := map[uint64]bool{}
		for op := 0; op < 20000; op++ {
			idx := rng.Uint64n(1 << 18)
			if rng.Bool(0.02) {
				idx = rng.Uint64()
			}
			if rng.Bool(0.5) {
				b.Set(idx, 1)
				shadow[idx] = true
			}
			if _, ok := b.Get(idx); ok != shadow[idx] {
				t.Fatalf("seed %d op %d: Get(%d) = %v, shadow %v", seed, op, idx, ok, shadow[idx])
			}
			if b.Len() != len(shadow) {
				t.Fatalf("seed %d op %d: Len = %d, shadow %d", seed, op, b.Len(), len(shadow))
			}
		}
	}
}

// checkForEach asserts that tb's ForEach visits exactly the shadow's
// entries, in ascending index order.
func checkForEach(t *testing.T, seed uint64, tb *Table, shadow map[uint64]uint64) {
	t.Helper()
	n := 0
	var prev uint64
	tb.ForEach(func(idx, val uint64) {
		if n > 0 && idx <= prev {
			t.Fatalf("seed %d: ForEach out of order at %d after %d", seed, idx, prev)
		}
		n, prev = n+1, idx
		if sv, ok := shadow[idx]; !ok || sv != val {
			t.Fatalf("seed %d: ForEach (%d, %d) not in shadow", seed, idx, val)
		}
	})
	if n != len(shadow) {
		t.Fatalf("seed %d: ForEach visited %d, shadow %d", seed, n, len(shadow))
	}
}

func TestSlabDiff(t *testing.T) {
	const rec = 16
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		s := NewSlab(rec)
		shadow := map[uint64][]byte{}
		buf := make([]byte, rec)
		for op := 0; op < 10000; op++ {
			idx := rng.Uint64n(1 << 12)
			if rng.Bool(0.6) {
				for i := range buf {
					buf[i] = byte(rng.Uint64())
				}
				s.Put(idx, buf)
				shadow[idx] = append([]byte(nil), buf...)
			}
			gv, gok := s.Get(idx)
			sv, sok := shadow[idx]
			if gok != sok || (gok && !bytes.Equal(gv, sv)) {
				t.Fatalf("seed %d op %d: Get(%d) = (%x, %v), shadow (%x, %v)", seed, op, idx, gv, gok, sv, sok)
			}
			if s.Len() != len(shadow) {
				t.Fatalf("seed %d op %d: Len = %d, shadow %d", seed, op, s.Len(), len(shadow))
			}
		}
		n := 0
		s.ForEach(func(idx uint64, got []byte) {
			n++
			if !bytes.Equal(got, shadow[idx]) {
				t.Fatalf("seed %d: ForEach[%d] = %x, shadow %x", seed, idx, got, shadow[idx])
			}
		})
		if n != len(shadow) {
			t.Fatalf("seed %d: ForEach visited %d, shadow %d", seed, n, len(shadow))
		}
	}
}

// flightShadow is the map-based inFlight bookkeeping the pram device used:
// a row -> completion map pruned of expired entries opportunistically.
type flightShadow struct {
	m map[uint64]sim.Time
}

func (s *flightShadow) set(key uint64, end sim.Time) { s.m[key] = end }
func (s *flightShadow) busy(now sim.Time, key uint64) bool {
	end, ok := s.m[key]
	return ok && end > now
}
func (s *flightShadow) drain(now sim.Time) sim.Time {
	d := now
	for _, end := range s.m {
		if end > d {
			d = end
		}
	}
	return d
}

func TestFlightDiff(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		var f Flight
		shadow := flightShadow{m: map[uint64]sim.Time{}}
		now := sim.Time(0)
		var maxEndSeen sim.Time
		for op := 0; op < 30000; op++ {
			now = now.Add(sim.Duration(rng.Uint64n(200)))
			key := rng.Uint64n(256)
			switch rng.Intn(3) {
			case 0:
				end := now.Add(sim.Duration(rng.Uint64n(500)))
				f.Set(now, key, end)
				shadow.set(key, end)
				if end > maxEndSeen {
					maxEndSeen = end
				}
			case 1:
				if f.Busy(now, key) != shadow.busy(now, key) {
					t.Fatalf("seed %d op %d: Busy(%v, %d) = %v, shadow %v",
						seed, op, now, key, f.Busy(now, key), shadow.busy(now, key))
				}
			case 2:
				// Drain with the watermark is exact over ALL ends ever
				// recorded; the shadow only sees unpruned entries, so Flight
				// may only report later-or-equal, bounded by the max end.
				got, want := f.Drain(now), shadow.drain(now)
				if got < want || got > sim.Max(now, maxEndSeen) {
					t.Fatalf("seed %d op %d: Drain(%v) = %v, shadow %v, maxEnd %v",
						seed, op, now, got, want, maxEndSeen)
				}
			}
			// End must agree for any entry the shadow still holds un-expired.
			if end, ok := shadow.m[key]; ok && end > now {
				if got, gok := f.End(key); !gok || got != end {
					t.Fatalf("seed %d op %d: End(%d) = (%v, %v), shadow %v", seed, op, key, got, gok, end)
				}
			}
		}
	}
}
