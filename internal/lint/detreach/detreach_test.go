package detreach_test

import (
	"testing"

	"repro/internal/lint/detreach"
	"repro/internal/lint/linttest"
)

// One test per policy row group, so each rule's fixtures pass or fail
// under their own name.

// TestDetreach covers the call-edge rule: reaching an Impure function.
func TestDetreach(t *testing.T) {
	linttest.Run(t, "testdata", detreach.Analyzer,
		"impuredep", "internal/app", "internal/snapfork")
}

// TestNodeterminism covers the direct rule: a clock or math/rand call
// anywhere under internal/.
func TestNodeterminism(t *testing.T) {
	linttest.Run(t, "testdata", detreach.Analyzer,
		"internal/bad", "internal/good", "outside")
}

// TestObsdeterminism covers the strict rule for the obs, energy and
// snapshot layers.
func TestObsdeterminism(t *testing.T) {
	linttest.Run(t, "testdata", detreach.Analyzer,
		"internal/obs/bad", "internal/obs/good",
		"internal/energy/bad", "internal/energy/good",
		"internal/snapshot/bad", "internal/snapshot/good",
		"obsoutside", "repro/internal/observe")
}

// TestMaporder covers the rule for a map range whose body produces
// order-dependent output.
func TestMaporder(t *testing.T) {
	linttest.Run(t, "testdata", detreach.Analyzer, "mo", "mogood")
}
