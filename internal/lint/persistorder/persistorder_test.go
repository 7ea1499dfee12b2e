package persistorder_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/persistorder"
)

// TestPersistorder runs the journal-order fixtures: the persistence stacks
// over the kernel sink.
func TestPersistorder(t *testing.T) {
	linttest.Run(t, "testdata", persistorder.Analyzer, "kernel", "journal", "pmdk")
}

// TestEpcutorder runs the EP-cut fixtures: flush dominance, nothing after
// the commit word and checked spend() deadlines in sng and checkpoint, and
// silence outside the policy table.
func TestEpcutorder(t *testing.T) {
	linttest.Run(t, "testdata", persistorder.Analyzer, "sng", "checkpoint", "elsewhere")
}
