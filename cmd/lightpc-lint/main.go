// Command lightpc-lint is the repository's static-analysis suite, run as a
// go vet tool:
//
//	go build -o bin/lightpc-lint ./cmd/lightpc-lint
//	go vet -vettool=$(pwd)/bin/lightpc-lint ./...
//
// (or simply `make lint`). It bundles four analyzers that enforce, at vet
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
//	persistorder   one per-package rule table over sng, checkpoint,
//	               journal, pmdk and psm: in the journal stacks every
//	               persistent mutation in a logging function follows the
//	               journal append; in sng and checkpoint every EP-cut commit
//	               is dominated by flush/sync and spend() deadlines are
//	               checked; in all five nothing persistent moves after a
//	               //lightpc:commitpoint, tracked across packages by facts
//	zeroalloc      functions annotated //lightpc:zeroalloc (and the pinned
//	               hot set behind BENCH_SEED.json's 0 allocs/op benches)
//	               contain no allocation sites and only call functions that
//	               carry the zeroalloc fact, transitively across packages;
//	               the device hot packages (pram, memctrl, psm, pmemdimm)
//	               may not hold map[uint64]-keyed fields, because per-line
//	               metadata lives on internal/linetab's paged tables
//	simtime        stdlib time.Duration (nanoseconds) never mixes with
//	               sim.Duration/sim.Time (picoseconds)
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
	"repro/internal/lint/persistorder"
	"repro/internal/lint/simtime"
	"repro/internal/lint/unitchecker"
	"repro/internal/lint/zeroalloc"
)

func main() {
	unitchecker.Main(
		detreach.Analyzer,
		persistorder.Analyzer,
		zeroalloc.Analyzer,
		simtime.Analyzer,
	)
}
