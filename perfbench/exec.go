package main

import (
	"time"

	lightpc "repro"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/pmdk"
	"repro/internal/pmemdimm"
	"repro/internal/psm"
	"repro/internal/sim"
	"repro/internal/workload"
)

// system names one memory system an exec workload runs a spec on.
type system int

const (
	sysLightPCB system = iota // OC-PMEM, conventional controller
	sysLightPC                // OC-PMEM, full PSM
	sysDRAM                   // DRAM-only (LegacyPC)
	sysMemMode                // PMEM memory mode: NMEM over DRAM + PMEM DIMM
	sysTrans                  // PMDK trans-mode over app-direct PMEM
)

func (s system) String() string {
	return [...]string{"LightPC-B", "LightPC", "DRAM-only", "mem-mode", "trans-mode"}[s]
}

// execCase is one Table II spec on one freshly built memory system.
type execCase struct {
	spec workload.Spec
	sys  system
	seed uint64
}

// execCases lists a workload's cases in run order: every Table II spec on
// each of the systems, every system of a spec sharing the spec's seed so
// they see identical reference streams.
func execCases(name string, seed uint64, systems ...system) []execCase {
	var out []execCase
	for _, spec := range workload.Table2() {
		s := sim.SubSeed(seed, name+"/"+spec.Name)
		for _, sys := range systems {
			out = append(out, execCase{spec: spec, sys: sys, seed: s})
		}
	}
	return out
}

// rig is one built memory system with its generators, ready for one run.
// Every field but the stats handles is what the run consumes.
type rig struct {
	c         execCase
	cpu       cpu.Config
	gens      []workload.Generator
	backend   cache.Backend
	platform  *lightpc.Platform // nil for the hand-assembled backends
	requested uint64            // references the generators hold

	psm   *psm.PSM
	drams []*memctrl.DRAMController
	nmem  *memctrl.NMEM
	pmem  *pmemdimm.DIMM
	tx    *pmdk.TxBackend

	top *clock // the clock of the backend cpu.Run calls (nil untraced)
}

// buildRig assembles the case's memory system as the figure harnesses do:
// platforms through lightpc.New with paper-default configs, the Fig 4
// backends by hand over paper-default devices. With a ledger, the backend
// layers are wrapped in timers and platform construction is timed.
func buildRig(c execCase, sampleOps uint64, l *ledger) *rig {
	r := &rig{c: c, cpu: cpu.DefaultConfig()}
	switch c.sys {
	case sysLightPCB, sysLightPC, sysDRAM:
		kind := lightpc.LegacyPC
		switch c.sys {
		case sysLightPCB:
			kind = lightpc.LightPCB
		case sysLightPC:
			kind = lightpc.LightPCFull
		}
		cfg := lightpc.DefaultConfig(kind)
		cfg.Seed = c.seed
		cfg.SampleOps = sampleOps
		start := time.Now()
		r.platform = lightpc.New(cfg)
		if l != nil {
			l.newPlatform.since(start, 1)
		}
		r.cpu = r.platform.Config().CPU
		r.backend = r.platform.Backend()
		r.psm = r.platform.PSM()
		if d := r.platform.DRAM(); d != nil {
			r.drams = append(r.drams, d)
		}
		if l != nil {
			r.top = &l.psm
			if c.sys == sysDRAM {
				r.top = &l.dram
			}
		}
	case sysMemMode:
		r.pmem = pmemdimm.New(pmemConfig(c.seed))
		d := memctrl.NewDRAMController(6, dram.DefaultConfig(), sim.FromNanoseconds(8))
		r.drams = append(r.drams, d)
		r.nmem = memctrl.NewNMEM(d, r.pmem, memctrl.NMEMConfig{CacheBlocks: 1 << 17})
		r.backend = r.nmem
		if l != nil {
			r.top = &l.nmem
		}
	case sysTrans:
		r.pmem = pmemdimm.New(pmemConfig(c.seed))
		var app cache.Backend = &memctrl.PMEMBackend{DIMM: r.pmem, DAXLatency: sim.FromNanoseconds(2)}
		var dev pmdk.Flusher = r.pmem
		if l != nil {
			app = &timedBackend{b: app, c: &l.pmem}
			dev = &timedFlusher{f: dev, c: &l.pmem}
		}
		r.tx = pmdk.DefaultTxBackend(app, dev)
		r.backend = r.tx
		if l != nil {
			r.top = &l.tx
		}
	}
	if l != nil {
		r.backend = &timedBackend{b: r.backend, c: r.top}
	}
	r.gens = cpu.Fanout(c.spec, r.cpu.Cores, sampleOps, c.seed)
	for _, g := range r.gens {
		r.requested += g.Remaining()
	}
	if l != nil {
		r.gens = wrapGens(r.gens, &l.gen)
	}
	return r
}

// pmemConfig is the paper-default PMEM DIMM with the case's seed.
func pmemConfig(seed uint64) pmemdimm.Config {
	cfg := pmemdimm.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// run executes the rig once. Untraced platforms go through
// Platform.RunGenerators (Platform.Run over pre-built generators); the
// traced path calls cpu.Run directly with the same CPU config, the wrapped
// generators and the wrapped backend, and charges the whole call to cpu.
func (r *rig) run(l *ledger) cpu.Result {
	if l == nil {
		if r.platform != nil {
			return r.platform.RunGenerators(r.c.spec.Name, r.gens, r.c.spec.MultiThread).Result
		}
		return cpu.Run(r.cpu, 0, r.gens, r.backend)
	}
	start := time.Now()
	res := cpu.Run(r.cpu, 0, r.gens, r.backend)
	l.cpu.since(start, res.MemOps)
	return res
}

// simCounts is every simulated statistic a run leaves in its layers. A
// change that only speeds up the simulator must leave it identical, and a
// traced run must reproduce the untraced one exactly.
type simCounts struct {
	PSM        psm.Stats
	PSMReadP99 sim.Duration
	NVDIMMRMW  uint64

	DRAMReads, DRAMWrites, DRAMRowHits, DRAMRefreshes uint64

	NMEMHits, NMEMMisses, NMEMWritebacks uint64

	PMEM        pmemdimm.Stats
	PMEMReadP99 sim.Duration

	TxCommits, TxLogWrites, TxLineFlushes uint64
}

// counts reads the rig's layers after its run.
func (r *rig) counts() simCounts {
	var s simCounts
	if r.psm != nil {
		s.PSM = r.psm.Stats()
		s.PSMReadP99 = r.psm.ReadLatency().Percentile(99)
		for _, d := range r.psm.DIMMs() {
			_, _, _, rmw, _ := d.Stats()
			s.NVDIMMRMW += rmw
		}
	}
	for _, d := range r.drams {
		rd, wr, hits, ref := d.Stats()
		s.DRAMReads += rd
		s.DRAMWrites += wr
		s.DRAMRowHits += hits
		s.DRAMRefreshes += ref
	}
	if r.nmem != nil {
		s.NMEMHits, s.NMEMMisses, s.NMEMWritebacks = r.nmem.Stats()
	}
	if r.pmem != nil {
		s.PMEM = r.pmem.Stats()
		s.PMEMReadP99 = r.pmem.ReadLatency().Percentile(99)
	}
	if r.tx != nil {
		s.TxCommits, s.TxLogWrites, s.TxLineFlushes = r.tx.Stats()
	}
	return s
}

// execOut is what one case produced.
type execOut struct {
	c      execCase
	res    cpu.Result
	counts simCounts
}

// checkExec applies the per-case output check: every generator was
// drained, so the run completed exactly the references it was handed.
func checkExec(chk *checker, r *rig, res cpu.Result) {
	chk.check(res.MemOps == r.requested, "%s on %v: MemOps %d, generators held %d",
		r.c.spec.Name, r.c.sys, res.MemOps, r.requested)
}

// checkLadder applies the cross-system checks of one pass over a
// workload's cases: LightPC is never slower than LightPC-B on a spec, and
// trans-mode is always slower than DRAM-only.
func checkLadder(chk *checker, outs []execOut) {
	type key struct {
		spec string
		sys  system
	}
	elapsed := map[key]sim.Duration{}
	for _, o := range outs {
		elapsed[key{o.c.spec.Name, o.c.sys}] = o.res.Elapsed
	}
	for _, o := range outs {
		switch o.c.sys {
		case sysLightPC:
			b := elapsed[key{o.c.spec.Name, sysLightPCB}]
			chk.check(o.res.Elapsed <= b, "%s: LightPC %v slower than LightPC-B %v",
				o.c.spec.Name, o.res.Elapsed, b)
		case sysTrans:
			d := elapsed[key{o.c.spec.Name, sysDRAM}]
			chk.check(o.res.Elapsed > d, "%s: trans-mode %v not slower than DRAM-only %v",
				o.c.spec.Name, o.res.Elapsed, d)
		}
	}
}
