package kernel

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refBank is the map-backed reference model Bank must match: the store
// and the sorted-FNV checksum as they were before the paged word store.
type refBank struct {
	persistent bool
	words      map[uint64]uint64
	observer   WriteObserver
}

func newRefBank(persistent bool) *refBank {
	return &refBank{persistent: persistent, words: map[uint64]uint64{}}
}

func (r *refBank) write(addr, val uint64) {
	if r.observer != nil {
		old, had := r.words[addr]
		r.observer(addr, old, had)
	}
	r.words[addr] = val
}

func (r *refBank) delete(addr uint64) {
	if r.observer != nil {
		old, had := r.words[addr]
		r.observer(addr, old, had)
	}
	delete(r.words, addr)
}

func (r *refBank) powerLoss() {
	if !r.persistent {
		r.words = map[uint64]uint64{}
	}
}

func (r *refBank) clone() *refBank {
	c := newRefBank(r.persistent)
	for a, v := range r.words {
		c.words[a] = v
	}
	return c
}

// sorted lists the addresses accepted by keep, ascending.
func (r *refBank) sorted(keep func(uint64) bool) []uint64 {
	var addrs []uint64
	for a := range r.words {
		if keep(a) {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

func (r *refBank) checksumRange(lo, hi uint64) uint64 {
	return r.fnv(r.sorted(func(a uint64) bool { return a >= lo && a < hi }))
}

func (r *refBank) checksum() uint64 {
	return r.fnv(r.sorted(func(uint64) bool { return true }))
}

func (r *refBank) fnv(addrs []uint64) uint64 {
	var h uint64 = 1469598103934665603
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	for _, a := range addrs {
		mix(a)
		mix(r.words[a])
	}
	return h
}

func (r *refBank) copyTo(dst *refBank, offset uint64) int {
	addrs := r.sorted(func(uint64) bool { return true })
	for _, a := range addrs {
		dst.write(offset+a, r.words[a])
	}
	return len(addrs)
}

func (r *refBank) restoreFrom(src *refBank, offset uint64) int {
	addrs := src.sorted(func(a uint64) bool { return a >= offset })
	for _, a := range addrs {
		r.write(a-offset, src.words[a])
		delete(src.words, a)
	}
	return len(addrs)
}

// obsEvent is one observed mutation.
type obsEvent struct {
	addr, old uint64
	had       bool
}

// bankAddrs is the address pool the property test draws from: 0 and
// ^uint64(0), every Region* boundary and its neighbours, unaligned
// addresses sharing 128-byte spans with aligned ones, and dense runs of
// aligned words so pages fill, split across spans, and interleave.
func bankAddrs(aligned bool) []uint64 {
	var pool []uint64
	add := func(a uint64) {
		if !aligned || a%8 == 0 {
			pool = append(pool, a)
		}
	}
	bounds := []uint64{0, RegionPool, RegionBCB, RegionCkpt, RegionDCB, RegionHib, RegionHib + hibDRAMOff}
	for _, b := range bounds {
		for _, d := range []uint64{0, 1, 5, 8, 120, 128, 136} {
			add(b + d)
			add(b - d)
		}
	}
	add(^uint64(0))
	add(^uint64(0) - 7)
	add(^uint64(0) - 127)
	for i := uint64(0); i < 40; i++ {
		add(0x80000 + 8*i)
		add(RegionPool + 0x1000 + 8*i)
		add(0x80000 + 8*i + 3)
	}
	return pool
}

// TestBankMatchesReference drives random Write, Delete, Read, Clone,
// CopyTo, RestoreFrom and PowerLoss against the map-backed reference and
// checks Read, Len, the observer's (addr, old, had) sequence, clone
// independence, and both checksums after every step. The checksums are
// asserted on unaligned banks too: the paged store walks every address in
// ascending order, misaligned or not.
func TestBankMatchesReference(t *testing.T) {
	for _, aligned := range []bool{true, false} {
		for seed := uint64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("aligned=%v/seed=%d", aligned, seed), func(t *testing.T) {
				checkBankAgainstReference(t, sim.NewRNG(seed), bankAddrs(aligned))
			})
		}
	}
}

func checkBankAgainstReference(t *testing.T, rng *sim.RNG, addrs []uint64) {
	pick := func() uint64 { return addrs[rng.Intn(len(addrs))] }
	val := func() uint64 {
		if rng.Intn(4) == 0 {
			return 0 // a stored zero must stay distinct from an absent word
		}
		return rng.Uint64()
	}
	offsets := []uint64{0, 8, RegionHib + hibDRAMOff, 1 << 40, 3}
	bounds := append([]uint64{RegionPool, RegionBCB, RegionCkpt, RegionDCB, RegionHib}, addrs...)

	var got, want [2][]obsEvent
	banks := [2]*Bank{NewBank("vol", false), NewBank("per", true)}
	refs := [2]*refBank{newRefBank(false), newRefBank(true)}
	for i := range banks {
		banks[i].SetWriteObserver(func(a, o uint64, h bool) { got[i] = append(got[i], obsEvent{a, o, h}) })
		refs[i].observer = func(a, o uint64, h bool) { want[i] = append(want[i], obsEvent{a, o, h}) }
	}

	for step := 0; step < 1500; step++ {
		i := rng.Intn(2)
		b, r := banks[i], refs[i]
		op := rng.Intn(100)
		switch {
		case op < 50:
			a, v := pick(), val()
			b.Write(a, v)
			r.write(a, v)
		case op < 70:
			a := pick()
			b.Delete(a)
			r.delete(a)
		case op < 80:
			a := pick()
			if g, w := b.Read(a), r.words[a]; g != w {
				t.Fatalf("step %d: Read(%#x) = %#x, want %#x", step, a, g, w)
			}
		case op < 85:
			checkCloneIndependence(t, step, rng, b, r, pick, val)
		case op < 91 && b.Len()+banks[1-i].Len() < 300: // repeated copies would grow the banks unboundedly
			off := offsets[rng.Intn(len(offsets))]
			if g, w := b.CopyTo(banks[1-i], off), r.copyTo(refs[1-i], off); g != w {
				t.Fatalf("step %d: CopyTo moved %d words, want %d", step, g, w)
			}
		case op < 97:
			off := offsets[rng.Intn(len(offsets))]
			if g, w := b.RestoreFrom(banks[1-i], off), r.restoreFrom(refs[1-i], off); g != w {
				t.Fatalf("step %d: RestoreFrom moved %d words, want %d", step, g, w)
			}
		default:
			b.PowerLoss()
			r.powerLoss()
		}

		for j := range banks {
			if g, w := banks[j].Len(), len(refs[j].words); g != w {
				t.Fatalf("step %d: bank %d Len = %d, want %d", step, j, g, w)
			}
			if g, w := banks[j].Checksum(), refs[j].checksum(); g != w {
				t.Fatalf("step %d: bank %d Checksum = %#x, want %#x", step, j, g, w)
			}
			if len(got[j]) != len(want[j]) {
				t.Fatalf("step %d: bank %d observed %d mutations, want %d", step, j, len(got[j]), len(want[j]))
			}
		}
		lo, hi := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
		if g, w := b.ChecksumRange(lo, hi), r.checksumRange(lo, hi); g != w {
			t.Fatalf("step %d: ChecksumRange(%#x, %#x) = %#x, want %#x", step, lo, hi, g, w)
		}
	}

	for j := range banks {
		for k := range want[j] {
			if got[j][k] != want[j][k] {
				t.Fatalf("bank %d observer event %d = %+v, want %+v", j, k, got[j][k], want[j][k])
			}
		}
		for _, a := range addrs {
			if g, w := banks[j].Read(a), refs[j].words[a]; g != w {
				t.Fatalf("bank %d final Read(%#x) = %#x, want %#x", j, a, g, w)
			}
		}
	}
}

// checkCloneIndependence clones b, checks the clone matches the reference
// and carries no observer, then mutates both sides and checks neither
// write is visible in the other.
func checkCloneIndependence(t *testing.T, step int, rng *sim.RNG, b *Bank, r *refBank, pick func() uint64, val func() uint64) {
	t.Helper()
	c, rc := b.Clone(), r.clone()
	if c.Name() != b.Name() || c.Persistent() != b.Persistent() || c.Len() != b.Len() {
		t.Fatalf("step %d: clone header differs", step)
	}
	if c.observer != nil {
		t.Fatalf("step %d: clone carried the observer", step)
	}
	if g, w := c.Checksum(), rc.checksum(); g != w {
		t.Fatalf("step %d: clone Checksum = %#x, want %#x", step, g, w)
	}
	for n := 0; n < 8; n++ {
		a, v := pick(), val()
		if rng.Intn(3) == 0 {
			c.Delete(a)
			delete(rc.words, a)
		} else {
			c.Write(a, v)
			rc.words[a] = v
		}
	}
	if g, w := c.Checksum(), rc.checksum(); g != w || c.Len() != len(rc.words) {
		t.Fatalf("step %d: mutated clone Checksum = %#x (Len %d), want %#x (Len %d)", step, g, c.Len(), w, len(rc.words))
	}
	if g, w := b.Checksum(), r.checksum(); g != w {
		t.Fatalf("step %d: clone write leaked into the source", step)
	}
	a, v := pick(), val()
	before := c.Checksum()
	b.Write(a, v)
	r.write(a, v)
	if c.Checksum() != before {
		t.Fatalf("step %d: source write leaked into the clone", step)
	}
}

// TestBankReadZeroAlloc pins Bank.Read's //lightpc:zeroalloc contract at
// run time, on hits, misses and absent slots of present pages.
func TestBankReadZeroAlloc(t *testing.T) {
	b := postCutBank()
	addrs := []uint64{0x80000, RegionPool + 8, RegionHib + 0x1234, 1, ^uint64(0)}
	if n := testing.AllocsPerRun(100, func() {
		for _, a := range addrs {
			benchWord = b.Read(a)
		}
	}); n != 0 {
		t.Fatalf("Bank.Read allocates %.1f times per run", n)
	}
}
