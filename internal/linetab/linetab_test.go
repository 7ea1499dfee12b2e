package linetab

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

func TestTableBasic(t *testing.T) {
	tb := NewTable()
	if _, ok := tb.Get(5); ok {
		t.Fatal("empty table reports presence")
	}
	tb.Set(5, 0) // explicit zero must be present
	if v, ok := tb.Get(5); !ok || v != 0 {
		t.Fatalf("Get(5) = (%d, %v), want (0, true)", v, ok)
	}
	tb.Set(5, 77)
	if v, ok := tb.Get(5); !ok || v != 77 {
		t.Fatalf("Get(5) = (%d, %v), want (77, true)", v, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	tb.Set(1<<40, 1) // spill-directory territory
	if v, ok := tb.Get(1 << 40); !ok || v != 1 {
		t.Fatalf("spill Get = (%d, %v), want (1, true)", v, ok)
	}
	if _, ok := tb.Get(1<<40 + 1); ok || tb.Len() != 2 {
		t.Fatalf("spill neighbour present or Len = %d, want 2", tb.Len())
	}
}

func TestTableForEachOrder(t *testing.T) {
	tb := NewTable()
	idxs := []uint64{1 << 40, 9, 1000, 2, 1<<40 + 1, 511, 512}
	for _, i := range idxs {
		tb.Set(i, i*2)
	}
	var got []uint64
	tb.ForEach(func(idx, val uint64) {
		if val != idx*2 {
			t.Fatalf("ForEach value at %d = %d", idx, val)
		}
		got = append(got, idx)
	})
	want := []uint64{2, 9, 511, 512, 1000, 1 << 40, 1<<40 + 1}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d slots, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
}

func TestSlabBasic(t *testing.T) {
	s := NewSlab(4)
	if _, ok := s.Get(9); ok {
		t.Fatal("empty slab reports presence")
	}
	s.Put(9, []byte{1, 2, 3, 4})
	s.Put(700, []byte{5, 6, 7, 8})
	if rec, ok := s.Get(9); !ok || !bytes.Equal(rec, []byte{1, 2, 3, 4}) {
		t.Fatalf("Get(9) = (%v, %v)", rec, ok)
	}
	// Rewrite reuses the slot in place: arena must not grow.
	arenaLen := len(s.arena)
	s.Put(9, []byte{9, 9, 9, 9})
	if len(s.arena) != arenaLen {
		t.Fatalf("rewrite grew arena %d -> %d", arenaLen, len(s.arena))
	}
	if rec, _ := s.Get(9); !bytes.Equal(rec, []byte{9, 9, 9, 9}) {
		t.Fatalf("rewrite not visible: %v", rec)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}

	var got []uint64
	s.ForEach(func(idx uint64, rec []byte) { got = append(got, idx) })
	if len(got) != 2 || got[0] != 9 || got[1] != 700 {
		t.Fatalf("ForEach order = %v, want [9 700]", got)
	}
}

func TestSlabSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short Put did not panic")
		}
	}()
	NewSlab(8).Put(0, []byte{1})
}

func TestFlightBasic(t *testing.T) {
	var f Flight
	if !f.Quiet(0) || f.Busy(0, 7) {
		t.Fatal("empty Flight not quiet")
	}
	if got := f.Drain(5); got != 5 {
		t.Fatalf("empty Drain = %v, want 5", got)
	}

	f.Set(0, 7, 100)
	if f.Quiet(50) || !f.Busy(50, 7) || f.Busy(50, 8) {
		t.Fatal("Busy mismatch before end")
	}
	if f.Busy(100, 7) {
		t.Fatal("Busy at exact end time")
	}
	if !f.Quiet(100) {
		t.Fatal("not quiet once watermark passed")
	}
	if got := f.Drain(20); got != 100 {
		t.Fatalf("Drain = %v, want 100", got)
	}
	if end, ok := f.End(7); !ok || end != 100 {
		t.Fatalf("End(7) = (%v, %v)", end, ok)
	}

	// Overwrite moves the end forward.
	f.Set(0, 7, 250)
	if end, _ := f.End(7); end != 250 {
		t.Fatalf("overwritten End = %v, want 250", end)
	}
	if got := f.Drain(0); got != 250 {
		t.Fatalf("Drain after overwrite = %v", got)
	}
}

func TestFlightZeroEnd(t *testing.T) {
	// A configured zero latency makes end == now == 0 legitimate; the
	// sentinel encoding must not conflate it with an empty slot.
	var f Flight
	f.Set(0, 3, 0)
	if end, ok := f.End(3); !ok || end != 0 {
		t.Fatalf("End after zero-end Set = (%v, %v), want (0, true)", end, ok)
	}
	if f.Busy(0, 3) {
		t.Fatal("zero-end entry reported busy")
	}
}

func TestFlightNegativeEndPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative end did not panic")
		}
	}()
	var f Flight
	f.Set(0, 1, -1)
}

func TestFlightBoundedUnderExpiry(t *testing.T) {
	// Keys expire as fast as they are inserted: the arena must stay at its
	// initial size no matter how many distinct keys pass through.
	var f Flight
	now := sim.Time(0)
	for i := uint64(0); i < 1_000_000; i++ {
		f.Set(now, i, now+10)
		now += 20 // every prior entry has expired by the next insert
	}
	if f.Cap() != flightMinSlots {
		t.Fatalf("Cap = %d, want initial %d", f.Cap(), flightMinSlots)
	}
}

func TestFlightGrowsWhenLive(t *testing.T) {
	var f Flight
	for i := uint64(0); i < 1000; i++ {
		f.Set(0, i, 1<<40) // nothing ever expires
	}
	if f.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", f.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		if end, ok := f.End(i); !ok || end != 1<<40 {
			t.Fatalf("End(%d) = (%v, %v) after growth", i, end, ok)
		}
	}
}

func TestZeroAllocSteadyState(t *testing.T) {
	tb := NewTable()
	counts := NewTable()
	s := NewSlab(8)
	var f Flight
	rec := make([]byte, 8)
	for i := uint64(0); i < 4096; i++ {
		tb.Set(i, i)
		counts.Set(i, 1)
		s.Put(i, rec)
		f.Set(sim.Time(i), i%64, sim.Time(i)+5)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < 4096; i += 64 {
			tb.Set(i, i)
			tb.Get(i + 1)
			n, _ := counts.Get(i)
			counts.Set(i, n+1)
			s.Put(i, rec)
			s.Get(i + 1)
			f.Set(sim.Time(i), i%64, sim.Time(i)+5)
			f.Busy(sim.Time(i), i%64)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/run = %v, want 0", allocs)
	}
}
