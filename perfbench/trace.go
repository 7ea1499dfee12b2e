package main

import (
	"time"

	"repro/internal/cache"
	"repro/internal/pmdk"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// clock accumulates the host time spent inside one layer boundary and how
// many units of work crossed it (references, accesses, or calls).
type clock struct {
	ns    int64
	calls uint64
}

// add charges d and n units of work.
func (c *clock) add(d time.Duration, n uint64) {
	c.ns += int64(d)
	c.calls += n
}

// since charges the time elapsed from start and n units of work.
func (c *clock) since(start time.Time, n uint64) { c.add(time.Since(start), n) }

// perCall is the mean host time per unit of work, in the given unit.
func (c clock) perCall(unit time.Duration) float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.calls) / float64(unit)
}

// ledger holds one clock per layer boundary the traced run times. The
// wrappers below charge into it from outside the layers: the simulator's
// own code is called exactly as in an untraced run.
type ledger struct {
	gen  clock // workload.Generator.NextBatch, per reference
	cpu  clock // cpu.Run, whole call, per reference
	psm  clock // PSMBackend (psm + nvdimm + pram), per access
	dram clock // DRAMController as the DRAM-only backend, per access
	nmem clock // NMEM (near cache + DRAM + PMEM DIMM), per access
	pmem clock // PMEMBackend and device Flush under trans-mode, per call
	tx   clock // TxBackend including its inner PMEM calls, per access

	newPlatform clock // lightpc.New
	build       clock // crashpoint.Build
	offsets     clock // crashpoint.CellOffsets
	fork        clock // crashpoint.System.Fork
	cut         clock // crashpoint.System.CutAt
	stop        clock // Platform.PowerFail (SnG Stop)
	goRecover   clock // Platform.Recover (SnG Go)
}

// timedGen times every batch pulled from a generator. It implements
// workload.BatchSource so cpu.Run keeps pulling whole batches, which keeps
// the reference sequence each core sees unchanged.
type timedGen struct {
	g workload.Generator
	c *clock
}

func (t *timedGen) Name() string      { return t.g.Name() }
func (t *timedGen) Remaining() uint64 { return t.g.Remaining() }

func (t *timedGen) Next() (workload.Ref, bool) {
	start := time.Now()
	r, ok := t.g.Next()
	n := uint64(0)
	if ok {
		n = 1
	}
	t.c.since(start, n)
	return r, ok
}

func (t *timedGen) NextBatch(buf []workload.Ref) int {
	start := time.Now()
	n := workload.FillBatch(t.g, buf)
	t.c.since(start, uint64(n))
	return n
}

// statsGen is a timedGen over a generator that reports traffic stats;
// cpu.Run merges those into its Result, so the wrapper must pass them on.
type statsGen struct {
	timedGen
	s interface{ Stats() trace.Stats }
}

func (t *statsGen) Stats() trace.Stats { return t.s.Stats() }

// wrapGens returns timed views of gens that charge c.
func wrapGens(gens []workload.Generator, c *clock) []workload.Generator {
	out := make([]workload.Generator, len(gens))
	for i, g := range gens {
		t := timedGen{g: g, c: c}
		if s, ok := g.(interface{ Stats() trace.Stats }); ok {
			out[i] = &statsGen{timedGen: t, s: s}
		} else {
			out[i] = &t
		}
	}
	return out
}

// timedBackend times every access through a memory backend.
type timedBackend struct {
	b cache.Backend
	c *clock
}

func (t *timedBackend) Read(now sim.Time, addr uint64) sim.Time {
	start := time.Now()
	done := t.b.Read(now, addr)
	t.c.since(start, 1)
	return done
}

func (t *timedBackend) Write(now sim.Time, addr uint64) sim.Time {
	start := time.Now()
	done := t.b.Write(now, addr)
	t.c.since(start, 1)
	return done
}

// timedFlusher times the commit-time device drain of trans-mode.
type timedFlusher struct {
	f pmdk.Flusher
	c *clock
}

func (t *timedFlusher) Flush(now sim.Time) sim.Time {
	start := time.Now()
	done := t.f.Flush(now)
	t.c.since(start, 1)
	return done
}
