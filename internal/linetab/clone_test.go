package linetab

import (
	"testing"

	"repro/internal/snapshot"
)

// TestCloneCompleteness pins every table's field list against its Clone:
// adding a mutable field without teaching the clone about it fails here.
func TestCloneCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, dirIndex{},
		"dense", "spillKeys", "spillSlots", "spillLive", "spillShift")
	snapshot.CheckCovered(t, Table{},
		"dir", "pages", "count")
	snapshot.CheckCovered(t, Slab{},
		"rec", "refs", "arena")
	snapshot.CheckCovered(t, Flight{},
		"keys", "ends", "live", "shift", "maxEnd", "scratchK", "scratchE")
}

// TestCloneIndependence mutates clones and sources and checks neither sees
// the other.
func TestCloneIndependence(t *testing.T) {
	tb := NewTable()
	tb.Set(7, 70)
	tb.Set(1<<40, 3) // spill-table path
	tc := tb.Clone()
	tc.Set(7, 71)
	tc.Set(9, 90)
	if v, _ := tb.Get(7); v != 70 {
		t.Fatalf("source table changed by clone write: %d", v)
	}
	if _, ok := tb.Get(9); ok || tb.Len() != 2 {
		t.Fatalf("clone insert visible in source (Len %d)", tb.Len())
	}
	tb.Set(1<<40, 4)
	if v, _ := tc.Get(1 << 40); v != 3 {
		t.Fatalf("clone table changed by source write: %d", v)
	}
	var nilTable *Table
	if nilTable.Clone() != nil {
		t.Fatal("nil table must clone to nil")
	}

	s := NewSlab(4)
	s.Put(1, []byte{1, 2, 3, 4})
	scl := s.Clone()
	scl.Put(1, []byte{9, 9, 9, 9})
	if rec, _ := s.Get(1); rec[0] != 1 {
		t.Fatalf("source slab changed by clone write: %v", rec)
	}

	var f Flight
	f.Set(0, 42, 100)
	fc := f.Clone()
	fc.Set(0, 42, 200)
	if end, _ := f.End(42); end != 100 {
		t.Fatalf("source flight changed by clone write: %v", end)
	}
}

func BenchmarkSlabClone(b *testing.B) {
	s := NewSlab(64)
	rec := make([]byte, 64)
	for i := 0; i < 2048; i++ {
		rec[0] = byte(i)
		s.Put(uint64(i), rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Clone()
	}
}

func BenchmarkFlightClone(b *testing.B) {
	var f Flight
	for i := 0; i < 512; i++ {
		f.Set(0, uint64(i), 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Clone()
	}
}
