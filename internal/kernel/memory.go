package kernel

import "math/bits"

// pageWords is the number of word slots in one bank page. Banks are
// sparse: the base bank of a paper-sized crash cell holds 174 words over
// 23 distinct 4 KB address pages, so a page spans only 16 words and a
// fork copies ~3.5 KB instead of a dense 512-slot table's ~95 KB.
const pageWords = 16

// spanBits is log2 of the address bytes one page spans (16 words of 8).
const spanBits = 7

// bankPage holds up to pageWords words; present marks the occupied slots,
// so a stored zero stays distinct from an absent word. An absent slot's
// value is always zero.
type bankPage struct {
	present uint16
	vals    [pageWords]uint64
}

// dirEntry maps one page key to the page's position in the arena.
type dirEntry struct {
	key uint64
	idx int32
}

// Bank is one addressable memory region. LightPC runs everything out of the
// persistent OC-PMEM bank; LegacyPC additionally has a volatile DRAM bank
// holding all processes and kernel data, which a power loss wipes.
//
// Words live in an ordered paged store: pages sit in an append-only arena,
// and a directory sorted by page key locates them by binary search. A page
// key is the word index (addr>>3) with its low four bits — the slot — cut
// off, and the address's byte misalignment (addr&7) appended, so every
// address maps to exactly one (page, slot) and 8-byte-aligned words (all
// the kernel and the persistence stacks ever store) share pages densely.
// Walking the directory in order visits addresses in ascending order; the
// pages of one 128-byte span (one per misalignment) are merged slot by
// slot.
type Bank struct {
	name       string
	persistent bool
	dir        []dirEntry // sorted by key
	pages      []bankPage // arena; dir[i].idx indexes it
	n          int        // populated words
	hint       int        // dir position of the last page Write touched

	// observer, when set, sees every mutation before it is applied (the
	// crash-point adversary's instrumentation seam).
	observer WriteObserver
}

// WriteObserver receives each mutation of a bank before it lands: the
// address touched, the previous word there, and whether one existed. Both
// Write and Delete report through it, so an observer can reconstruct the
// bank image as of any prefix of the write stream.
type WriteObserver func(addr, old uint64, hadOld bool)

// NewBank builds a bank.
func NewBank(name string, persistent bool) *Bank {
	return &Bank{name: name, persistent: persistent}
}

// Name reports the bank's name.
func (b *Bank) Name() string { return b.name }

// Persistent reports whether contents survive power loss.
func (b *Bank) Persistent() bool { return b.persistent }

// SetWriteObserver installs (or, with nil, removes) the mutation observer.
func (b *Bank) SetWriteObserver(fn WriteObserver) { b.observer = fn }

// pageKey is the directory key of the page holding addr.
//
//lightpc:zeroalloc
func pageKey(addr uint64) uint64 { return addr>>spanBits<<3 | addr&7 }

// slotOf is addr's slot within its page.
//
//lightpc:zeroalloc
func slotOf(addr uint64) uint { return uint(addr>>3) % pageWords }

// search returns the first directory position whose key is >= key.
//
//lightpc:zeroalloc
func (b *Bank) search(key uint64) int {
	lo, hi := 0, len(b.dir)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.dir[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// page returns the page holding addr, or nil when there is none.
//
//lightpc:zeroalloc
func (b *Bank) page(addr uint64) *bankPage {
	key := pageKey(addr)
	if i := b.search(key); i < len(b.dir) && b.dir[i].key == key {
		return &b.pages[b.dir[i].idx]
	}
	return nil
}

// lookup reports the word at addr and whether one is stored.
func (b *Bank) lookup(addr uint64) (uint64, bool) {
	p := b.page(addr)
	if p == nil {
		return 0, false
	}
	s := slotOf(addr)
	return p.vals[s], p.present&(1<<s) != 0
}

// Write stores a word.
func (b *Bank) Write(addr, val uint64) {
	if b.observer != nil {
		old, had := b.lookup(addr)
		b.observer(addr, old, had)
	}
	// Writes come in runs (a saved context, a device block, a pool
	// object), so the last page touched is checked before searching.
	key, i := pageKey(addr), b.hint
	if i >= len(b.dir) || b.dir[i].key != key {
		i = b.search(key)
		if i == len(b.dir) || b.dir[i].key != key {
			b.dir = append(b.dir, dirEntry{})
			copy(b.dir[i+1:], b.dir[i:])
			b.dir[i] = dirEntry{key: key, idx: int32(len(b.pages))}
			b.pages = append(b.pages, bankPage{})
		}
		b.hint = i
	}
	p := &b.pages[b.dir[i].idx]
	s := slotOf(addr)
	if p.present&(1<<s) == 0 {
		p.present |= 1 << s
		b.n++
	}
	p.vals[s] = val
}

// Read loads a word (absent addresses read as zero).
//
//lightpc:zeroalloc
func (b *Bank) Read(addr uint64) uint64 {
	if p := b.page(addr); p != nil {
		return p.vals[slotOf(addr)]
	}
	return 0
}

// Delete removes a word.
func (b *Bank) Delete(addr uint64) {
	if b.observer != nil {
		old, had := b.lookup(addr)
		b.observer(addr, old, had)
	}
	if p := b.page(addr); p != nil {
		b.clear(p, slotOf(addr))
	}
}

// clear empties slot s of page p.
func (b *Bank) clear(p *bankPage, s uint) {
	if p.present&(1<<s) != 0 {
		p.present &^= 1 << s
		p.vals[s] = 0
		b.n--
	}
}

// Len reports how many words are populated.
func (b *Bank) Len() int { return b.n }

// PowerLoss models losing power: volatile banks are wiped, persistent
// banks keep their contents.
func (b *Bank) PowerLoss() {
	if !b.persistent {
		b.dir, b.pages, b.n, b.hint = nil, nil, 0, 0
	}
}

// walk calls fn, in ascending address order, for every stored word with
// lo <= addr <= last, passing the word's page and slot.
func (b *Bank) walk(lo, last uint64, fn func(addr uint64, p *bankPage, s uint)) {
	for i := b.search(lo >> spanBits << 3); i < len(b.dir); {
		span := b.dir[i].key >> 3
		if span > last>>spanBits {
			return
		}
		// The span's pages, one per misalignment, in key order.
		j, union := i, uint16(0)
		for ; j < len(b.dir) && b.dir[j].key>>3 == span; j++ {
			union |= b.pages[b.dir[j].idx].present
		}
		for m := union; m != 0; m &= m - 1 {
			s := uint(bits.TrailingZeros16(m))
			for _, e := range b.dir[i:j] {
				p := &b.pages[e.idx]
				a := span<<spanBits | uint64(s)<<3 | e.key&7
				if p.present&(1<<s) != 0 && a >= lo && a <= last {
					fn(a, p, s)
				}
			}
		}
		i = j
	}
}

// fnvBasis is the digest of an empty bank or range.
const fnvBasis uint64 = 1469598103934665603

// checksum folds the words with lo <= addr <= last into an FNV-style
// digest over ascending (address, value) pairs.
func (b *Bank) checksum(lo, last uint64) uint64 {
	h := fnvBasis
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	b.walk(lo, last, func(a uint64, p *bankPage, s uint) {
		mix(a)
		mix(p.vals[s])
	})
	return h
}

// Checksum folds the bank contents into a deterministic digest (FNV-style
// over sorted address/value pairs) — the tool the property tests use to
// prove the EP-cut restores state exactly.
func (b *Bank) Checksum() uint64 { return b.checksum(0, ^uint64(0)) }

// ChecksumRange digests only the words with lo <= addr < hi, in the same
// FNV-over-sorted-pairs form as Checksum. It lets crash invariants compare
// one reserved region (pool, checkpoint, hibernation) while ignoring areas
// a legitimate Stop writes (BCB, DCBs).
func (b *Bank) ChecksumRange(lo, hi uint64) uint64 {
	if hi <= lo {
		return fnvBasis
	}
	return b.checksum(lo, hi-1)
}

// Clone returns an independent copy of the bank's contents (no observer is
// carried over). The crash-point recorder clones the final image and
// rewinds it to reconstruct intermediate crash states.
func (b *Bank) Clone() *Bank {
	return &Bank{
		name:       b.name,
		persistent: b.persistent,
		dir:        append([]dirEntry(nil), b.dir...),
		pages:      append([]bankPage(nil), b.pages...),
		n:          b.n,
		hint:       b.hint,
	}
}

// CopyTo snapshots every word of b into dst at the given address offset —
// the bulk transfer SysPC performs when hibernating DRAM contents into
// OC-PMEM. dst must be a different bank.
func (b *Bank) CopyTo(dst *Bank, offset uint64) int {
	n := 0
	b.walk(0, ^uint64(0), func(a uint64, p *bankPage, s uint) {
		dst.Write(offset+a, p.vals[s])
		n++
	})
	return n
}

// RestoreFrom loads every word stored under offset in src back into b,
// removing the staged copy from src. src must be a different bank.
func (b *Bank) RestoreFrom(src *Bank, offset uint64) int {
	n := 0
	src.walk(offset, ^uint64(0), func(a uint64, p *bankPage, s uint) {
		b.Write(a-offset, p.vals[s])
		src.clear(p, s)
		n++
	})
	return n
}
