// Package sng mirrors the shape of repro/internal/sng for the persistorder
// EP-cut fixtures: the kernel fixture's bootloader with its Commit word,
// cores with dirty lines, and a deadline-driven spend.
package sng

import "kernel"

type run struct{ dead bool }

func (r *run) spend(d int64) bool { return !r.dead }

func flushCaches() {}
func memSync()     {}

// GoodStop: flush and sync dominate the commit.
func GoodStop(m *kernel.Kernel, r *run) {
	flushCaches()
	memSync()
	if r.spend(3) {
		m.Boot.Commit()
	}
}

// GoodGuardedFlush: the flush charge is the condition guarding the commit,
// so it executes on every path that reaches it.
func GoodGuardedFlush(m *kernel.Kernel, r *run) {
	var flush int64 = 4
	if r.spend(flush) {
		m.Boot.Commit()
	}
}

// BadNoFlush commits without any flush at all.
func BadNoFlush(m *kernel.Kernel) {
	m.Boot.SetMEPC(0x80002000)
	m.Boot.Commit() // want `not dominated by a cache/row-buffer flush`
}

// BadLoopFlush flushes only inside a loop body, which may run zero times:
// that does not dominate the commit.
func BadLoopFlush(m *kernel.Kernel, cores []*kernel.Core, r *run) {
	for _, c := range cores {
		if !r.spend(int64(c.DirtyLines)) {
			break
		}
		flushCaches()
	}
	m.Boot.Commit() // want `not dominated by a cache/row-buffer flush`
}

// BadBranchFlush flushes only on one branch not enclosing the commit.
func BadBranchFlush(m *kernel.Kernel, havePSM bool) {
	if havePSM {
		flushCaches()
	}
	m.Boot.Commit() // want `not dominated by a cache/row-buffer flush`
}

// BadMutateAfterCommit stores into EP-cut state after the commit word.
func BadMutateAfterCommit(m *kernel.Kernel, c *kernel.Core) {
	memSync()
	m.Boot.Commit()
	m.PersistFlag = false // want `persistent mutation \(m\.PersistFlag\) after the commit point`
	c.DirtyLines = 0      // want `persistent mutation \(c\.DirtyLines\) after the commit point`
	c.Online = false      // power marker, not EP-cut state: allowed
}

// BadWriteAfterCommit issues a persistent-bank write after the commit.
func BadWriteAfterCommit(m *kernel.Kernel, b *kernel.Bank) {
	memSync()
	m.Boot.Commit()
	b.Write(64, 1) // want `persistent mutation \(kernel\.Bank\.Write\) after the commit point`
}

// BadUncheckedSpend discards the deadline result.
func BadUncheckedSpend(r *run) {
	r.spend(7)     // want `result of r\.spend\(\) discarded`
	_ = r.spend(8) // explicit discard: acknowledged
	if !r.spend(9) {
		return
	}
}

// AllowedCommit demonstrates the escape hatch.
func AllowedCommit(m *kernel.Kernel) {
	m.Boot.Commit() //lint:allow persistorder commit word lives in an uncached bank
}
