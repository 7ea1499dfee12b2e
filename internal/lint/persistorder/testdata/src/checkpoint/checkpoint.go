// Package checkpoint mirrors repro/internal/checkpoint: region commits
// must flush the pool before writing the commit word.
package checkpoint

import "kernel"

func flushPool(b *kernel.Bank) {}

type region struct {
	bank *kernel.Bank
	vars []*uint64
}

// Commit is the region's own commit-word writer; as the annotated commit
// primitive its body is the commit mechanics, which the ordering rules do
// not constrain.
//
//lightpc:commitpoint
func (r *region) Commit() {
	for i, v := range r.vars {
		r.bank.Write(uint64(i), *v)
	}
	flushPool(r.bank)
	r.bank.Write(1<<40, 1)
}

// Good: flush before commit, nothing persistent after.
func Good(r *region) int {
	flushPool(r.bank)
	r.Commit()
	return len(r.vars)
}

// Bad: commit with no flush, then a pool write after the commit.
func Bad(r *region) {
	r.Commit()             // want `not dominated by a cache/row-buffer flush`
	r.bank.Write(1<<41, 2) // want `persistent mutation \(kernel\.Bank\.Write\) after the commit point`
}
