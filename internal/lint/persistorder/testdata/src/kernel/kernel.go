// Package kernel models the persistent-media sink and the EP-cut state for
// the persistorder fixtures: Bank.Write matches the analyzer's sink table by
// receiver, Store and the Bootloader's BCB writers pick up a
// MutatesPersistent fact by calling it, Bootloader.Commit is an annotated
// commit point, and Kernel.PersistFlag and Core.DirtyLines are in the store
// table. The pmdk and sng fixtures observe all of it across the package
// boundary. kernel itself is not a scoped package, so nothing is reported
// here.
package kernel

// Bank is a word-addressable persistent memory bank.
type Bank struct {
	words map[uint64]uint64
}

// Write stores a word: the sink primitive.
func (b *Bank) Write(addr, val uint64) {
	if b.words == nil {
		b.words = make(map[uint64]uint64)
	}
	b.words[addr] = val
}

// Read loads a word.
func (b *Bank) Read(addr uint64) uint64 { return b.words[addr] }

// Store wraps the sink in a free function; the MutatesPersistent fact
// follows it through the call graph.
func Store(b *Bank, addr, val uint64) {
	b.Write(addr, val)
}

// Bootloader owns the BCB in the persistent bank.
type Bootloader struct{ m *Bank }

// SetMEPC records the EP-cut program counter in the BCB.
func (b *Bootloader) SetMEPC(pc uint64) { b.m.Write(8, pc) }

// Commit writes the BCB commit word.
//
//lightpc:commitpoint
func (b *Bootloader) Commit() { b.m.Write(0, 1) }

// Core is one hart and its EP-cut state.
type Core struct {
	DirtyLines int
	Online     bool
}

// Kernel is the machine Stop draws the EP-cut over.
type Kernel struct {
	Boot        *Bootloader
	PersistFlag bool
}
