package main

import (
	"fmt"
	"time"

	"repro/internal/crashpoint"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// Power-cut sweep shape: a paper-sized system per cell, aged by a timed
// platform run, cut at the stratified grid plus seeded fuzz offsets.
const (
	cutSeedsPerSpec = 2
	cutFuzzPerCell  = 24
	cutAgeOps       = 50_000
)

// cutCell is one (spec, seed) cell of the sweep.
type cutCell struct {
	label string
	sc    crashpoint.Scenario
}

// cutCells lists every Table II spec × cutSeedsPerSpec seeds derived from
// the workload seed.
func cutCells(seed uint64) []cutCell {
	var out []cutCell
	for _, spec := range workload.Table2() {
		for i := 0; i < cutSeedsPerSpec; i++ {
			s := sim.SubSeed(seed, fmt.Sprintf("powercut-sweep/%s/%d", spec.Name, i))
			out = append(out, cutCell{
				label: fmt.Sprintf("crash/%s/seed%d", spec.Name, s),
				sc: crashpoint.Scenario{
					Seed:        s,
					Cores:       8,
					UserProcs:   72,
					KernelProcs: 48,
					Devices:     250,
					Workload:    spec.Name,
					SampleOps:   cutAgeOps,
				},
			})
		}
	}
	return out
}

// cellBase is a built cell: the system every cut forks, and its grid.
type cellBase struct {
	cell    cutCell
	base    *crashpoint.System
	offsets []sim.Duration
}

// buildCell is the cell's set-up: Build, then CellOffsets.
func buildCell(c cutCell, fuzz int, l *ledger) (cellBase, error) {
	start := time.Now()
	base, err := crashpoint.Build(c.sc)
	if err != nil {
		return cellBase{}, fmt.Errorf("build %s: %w", c.label, err)
	}
	if l != nil {
		l.build.since(start, 1)
	}
	start = time.Now()
	offsets := crashpoint.CellOffsets(base, c.label, fuzz)
	if l != nil {
		l.offsets.since(start, 1)
	}
	return cellBase{cell: c, base: base, offsets: offsets}, nil
}

// cutOut is one cut's outcome and its host latency (Fork plus CutAt).
type cutOut struct {
	outcome crashpoint.CutOutcome
	latency time.Duration
}

// cutAll forks the base once per offset and cuts the fork.
func (b cellBase) cutAll(l *ledger) []cutOut {
	out := make([]cutOut, 0, len(b.offsets))
	for _, off := range b.offsets {
		start := time.Now()
		f := b.base.Fork()
		mid := time.Now()
		o := f.CutAt(off)
		end := time.Now()
		if l != nil {
			l.fork.add(mid.Sub(start), 1)
			l.cut.add(end.Sub(mid), 1)
		}
		out = append(out, cutOut{outcome: o, latency: end.Sub(start)})
	}
	return out
}

// holdUp is the ATX hold-up budget every completed Stop must fit.
var holdUp = power.ATX().SpecHoldUp

// checkCuts applies the per-cut checks: zero invariant violations, and a
// completed Stop fits the hold-up budget.
func checkCuts(chk *checker, label string, outs []cutOut) {
	for _, o := range outs {
		c := o.outcome
		chk.check(len(c.Violations) == 0, "%s cut@%dps: %d invariant violations",
			label, c.OffsetPs, len(c.Violations))
		if c.Completed {
			chk.check(sim.Duration(c.StopTotalPs) <= holdUp, "%s cut@%dps: completed Stop took %v > %v",
				label, c.OffsetPs, sim.Duration(c.StopTotalPs), holdUp)
		}
	}
}

// probe power-fails one fork of the base through the platform's public
// PowerFail/Recover pair (SnG Stop then Go), timing both when traced. The
// Stop must complete within the hold-up budget and Go must then find the
// commit.
func (b cellBase) probe(chk *checker, l *ledger) sim.Duration {
	p := b.base.Fork().Platform
	start := time.Now()
	rep := p.PowerFail(0, power.ATX())
	mid := time.Now()
	_, err := p.Recover(0)
	end := time.Now()
	if l != nil {
		l.stop.add(mid.Sub(start), 1)
		l.goRecover.add(end.Sub(mid), 1)
	}
	chk.check(rep.Completed && rep.Total <= holdUp, "%s: probe Stop completed=%v in %v (budget %v)",
		b.cell.label, rep.Completed, rep.Total, holdUp)
	chk.check(err == nil, "%s: probe Go after a completed Stop: %v", b.cell.label, err)
	return rep.Total
}

// forkedBytes reads the process-wide fork accountant: bytes of state
// duplicated by every fork so far.
func forkedBytes() uint64 { return snapshot.Default().Bytes() }
