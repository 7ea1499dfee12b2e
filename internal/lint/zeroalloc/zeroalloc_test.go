package zeroalloc_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/zeroalloc"
)

// TestZeroalloc covers the annotated-body rules and cross-package facts.
func TestZeroalloc(t *testing.T) {
	linttest.Run(t, "testdata", zeroalloc.Analyzer, "zadep", "zahot")
}

// TestHotpath covers the map[uint64]-keyed field ban in the device hot
// packages; coldpkg is outside them.
func TestHotpath(t *testing.T) {
	linttest.Run(t, "testdata", zeroalloc.Analyzer,
		"internal/pram", "internal/memctrl", "internal/psm", "internal/pmemdimm", "internal/coldpkg")
}
