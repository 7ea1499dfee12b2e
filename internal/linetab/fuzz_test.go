package linetab

import (
	"encoding/binary"
	"testing"

	"repro/internal/sim"
)

// FuzzLineTab interprets the fuzz input as an op stream over every linetab
// structure, each run in lockstep with the plain map it replaced: a Table
// of values, a Table of read-modify-write counters, a presence-only Table
// and a Flight. The fuzzer hunts for index patterns (page boundaries,
// spill-directory indices) where the paged layout and the map disagree.
func FuzzLineTab(f *testing.F) {
	f.Add([]byte{})
	seed := make([]byte, 0, 64)
	for i := 0; i < 6; i++ {
		var b [10]byte
		b[0] = byte(i)
		binary.LittleEndian.PutUint64(b[1:9], uint64(i)<<(i*9))
		seed = append(seed, b[:]...)
	}
	f.Add(seed)
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 7, 4, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		counts := NewTable()
		cShadow := map[uint64]uint64{}
		tb := NewTable()
		tShadow := map[uint64]uint64{}
		set := NewTable()
		sShadow := map[uint64]bool{}
		var fl Flight
		flShadow := map[uint64]sim.Time{}
		now := sim.Time(0)
		var maxEnd sim.Time

		for len(data) >= 10 {
			op := data[0]
			idx := binary.LittleEndian.Uint64(data[1:9])
			arg := uint64(data[9])
			data = data[10:]

			switch op % 4 {
			case 0:
				n, _ := counts.Get(idx)
				counts.Set(idx, n+arg)
				cShadow[idx] += arg
			case 1:
				tb.Set(idx, arg)
				tShadow[idx] = arg
			case 2:
				set.Set(idx, 1)
				sShadow[idx] = true
			case 3:
				now = now.Add(sim.Duration(arg))
				end := now.Add(sim.Duration(idx % 512))
				fl.Set(now, idx%1024, end)
				flShadow[idx%1024] = end
				if end > maxEnd {
					maxEnd = end
				}
			}

			if n, _ := counts.Get(idx); n != cShadow[idx] {
				t.Fatalf("count(%d) = %d, shadow %d", idx, n, cShadow[idx])
			}
			gv, gok := tb.Get(idx)
			sv, sok := tShadow[idx]
			if gv != sv || gok != sok {
				t.Fatalf("Table.Get(%d) = (%d, %v), shadow (%d, %v)", idx, gv, gok, sv, sok)
			}
			if _, ok := set.Get(idx); ok != sShadow[idx] {
				t.Fatalf("in set(%d) = %v, shadow %v", idx, ok, sShadow[idx])
			}
			key := idx % 1024
			sEnd, sHeld := flShadow[key]
			if got := fl.Busy(now, key); got != (sHeld && sEnd > now) {
				t.Fatalf("Flight.Busy(%v, %d) = %v, shadow end %v (held %v)", now, key, got, sEnd, sHeld)
			}
			if got := fl.Drain(now); got != sim.Max(now, maxEnd) {
				t.Fatalf("Flight.Drain(%v) = %v, want %v", now, got, sim.Max(now, maxEnd))
			}
			if counts.Len() != len(cShadow) || tb.Len() != len(tShadow) || set.Len() != len(sShadow) {
				t.Fatalf("cardinality drift: counts %d/%d, values %d/%d, set %d/%d",
					counts.Len(), len(cShadow), tb.Len(), len(tShadow), set.Len(), len(sShadow))
			}
		}
	})
}
