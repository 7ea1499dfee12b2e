// Command lightpc-lint is the repository's static-analysis suite, run as a
// go vet tool:
//
//	go build -o bin/lightpc-lint ./cmd/lightpc-lint
//	go vet -vettool=$(pwd)/bin/lightpc-lint ./...
//
// (or simply `make lint`). It bundles six analyzers that enforce, at vet
// time, the invariants the reproduction otherwise only checks dynamically:
//
//	detreach       bit-for-bit determinism from one policy table: no wall
//	               clock or ambient randomness in internal/; no clock read
//	               or map range at all (tests included) in internal/obs,
//	               internal/energy and internal/snapshot; no golden output
//	               or simulated timing fed by Go's randomized map order
//	               anywhere; and an "impure" fact (wall clock, ambient rand,
//	               env reads, map-order escape) propagates through the call
//	               graph, so calls into nondeterministic helpers are flagged
//	epcutorder     in internal/sng and internal/checkpoint, the EP-cut
//	               commit is dominated by flush/sync, nothing persistent
//	               moves after the commit, and spend() deadlines are checked
//	persistorder   in journal/pmdk/psm, every persistent mutation in a
//	               logging function follows the journal append, and nothing
//	               persistent moves after a //lightpc:commitpoint
//	zeroalloc      functions annotated //lightpc:zeroalloc (and the pinned
//	               hot set behind BENCH_SEED.json's 0 allocs/op benches)
//	               contain no allocation sites and only call functions that
//	               carry the zeroalloc fact, transitively across packages
//	simtime        stdlib time.Duration (nanoseconds) never mixes with
//	               sim.Duration/sim.Time (picoseconds)
//	hotpath        the device hot packages (pram, memctrl, psm) may not
//	               hold map[uint64]-keyed fields; per-line metadata lives
//	               on internal/linetab's paged tables
//
// Findings can be suppressed in place with a reasoned directive:
//
//	expr //lint:allow <analyzer> <why this exception is sound>
//
// A directive that suppresses nothing is itself reported (as staleallow),
// so suppressions cannot outlive the code they excused.
package main

import (
	"repro/internal/lint/detreach"
	"repro/internal/lint/epcutorder"
	"repro/internal/lint/hotpath"
	"repro/internal/lint/persistorder"
	"repro/internal/lint/simtime"
	"repro/internal/lint/unitchecker"
	"repro/internal/lint/zeroalloc"
)

func main() {
	unitchecker.Main(
		detreach.Analyzer,
		epcutorder.Analyzer,
		persistorder.Analyzer,
		zeroalloc.Analyzer,
		simtime.Analyzer,
		hotpath.Analyzer,
	)
}
