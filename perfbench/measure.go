package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/crashpoint"
	"repro/internal/sim"
)

// execSampleOps is how many references every exec case samples: the
// paper-default lightpc.DefaultConfig size.
const execSampleOps = 200_000

// minRounds is the fewest passes a run makes, so set-up is measured
// several times whatever the run length.
const minRounds = 3

// roundStats is what one pass over a workload's inputs measured. Every
// pass runs the same tasks in the same order on the same inputs, and each
// case or cell starts from a freshly collected heap, so passes repeat one
// another and garbage from one task is not collected on the next one's
// clock.
type roundStats struct {
	setup  time.Duration // platform construction, Build, CellOffsets
	timed  time.Duration // the measured phase
	ops    uint64        // simulated references, or power cuts
	allocB uint64        // bytes allocated during the timed phase
	taskMs []float64     // host latency per task (one case run, or one cut)
}

// benchWorkload is one named workload: a pass over its inputs.
type benchWorkload struct {
	name string
	// round runs one pass, checking outputs into chk, and returns what it
	// measured plus the simulated outputs (identical on every pass).
	round func(seed uint64, l *ledger, chk *checker) (roundStats, any, error)
}

var workloads = []benchWorkload{
	{name: "ocpmem-exec", round: func(seed uint64, l *ledger, chk *checker) (roundStats, any, error) {
		rs, outs := execRound(execCases("ocpmem-exec", seed, sysLightPCB, sysLightPC), execSampleOps, l, chk)
		return rs, outs, nil
	}},
	{name: "conventional-exec", round: func(seed uint64, l *ledger, chk *checker) (roundStats, any, error) {
		rs, outs := execRound(execCases("conventional-exec", seed, sysDRAM, sysMemMode, sysTrans), execSampleOps, l, chk)
		return rs, outs, nil
	}},
	{name: "powercut-sweep", round: func(seed uint64, l *ledger, chk *checker) (roundStats, any, error) {
		rs, cells, err := cutRound(cutCells(seed), cutFuzzPerCell, l, chk)
		return rs, cells, err
	}},
}

func findWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// allocated is the process's cumulative heap allocation.
func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// execRound builds and runs every case once: construction is set-up, the
// run is the timed task.
func execRound(cases []execCase, sampleOps uint64, l *ledger, chk *checker) (roundStats, []execOut) {
	var rs roundStats
	outs := make([]execOut, 0, len(cases))
	for _, c := range cases {
		runtime.GC()
		start := time.Now()
		r := buildRig(c, sampleOps, l)
		rs.setup += time.Since(start)

		a0 := allocated()
		start = time.Now()
		res := r.run(l)
		d := time.Since(start)
		rs.allocB += allocated() - a0
		rs.timed += d
		rs.ops += res.MemOps
		rs.taskMs = append(rs.taskMs, msOf(d))

		checkExec(chk, r, res)
		outs = append(outs, execOut{c: c, res: res, counts: r.counts()})
	}
	checkLadder(chk, outs)
	return rs, outs
}

// cellOut is one swept cell's simulated outputs.
type cellOut struct {
	label   string
	cuts    []crashpoint.CutOutcome
	probe   sim.Duration // SnG Stop total of the probe fork
	forkedB uint64       // bytes of state the cuts' forks duplicated
}

// cutRound builds every cell (set-up) and cuts a fork of it at every grid
// offset (timed). Each cell also probes one more fork with
// PowerFail/Recover, outside both phases.
func cutRound(cells []cutCell, fuzz int, l *ledger, chk *checker) (roundStats, []cellOut, error) {
	var rs roundStats
	outs := make([]cellOut, 0, len(cells))
	for _, c := range cells {
		runtime.GC()
		start := time.Now()
		b, err := buildCell(c, fuzz, l)
		if err != nil {
			return rs, nil, err
		}
		rs.setup += time.Since(start)

		b0 := forkedBytes()
		a0 := allocated()
		start = time.Now()
		cuts := b.cutAll(l)
		rs.timed += time.Since(start)
		rs.allocB += allocated() - a0
		rs.ops += uint64(len(cuts))

		co := cellOut{label: c.label, forkedB: forkedBytes() - b0}
		for _, o := range cuts {
			rs.taskMs = append(rs.taskMs, msOf(o.latency))
			co.cuts = append(co.cuts, o.outcome)
		}
		checkCuts(chk, c.label, cuts)
		co.probe = b.probe(chk, l)
		outs = append(outs, co)
	}
	return rs, outs, nil
}

// sameOutputs checks that a repeated pass reproduced the first pass's
// simulated outputs exactly: same inputs, same results.
func sameOutputs(chk *checker, what string, first, again any) {
	chk.check(reflect.DeepEqual(first, again), "%s: simulated outputs differ from the first pass", what)
}
