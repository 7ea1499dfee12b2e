package experiments

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/pmdk"
	"repro/internal/pmemdimm"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
)

// PersistMode is one rung of Figure 4's persistence-control ladder.
type PersistMode int

// Modes in paper order.
const (
	ModeDRAMOnly PersistMode = iota
	ModeMem                  // PMEM memory mode (NMEM cache + snarf)
	ModeApp                  // app-direct with DAX
	ModeObject               // PMDK libpmemobj objects
	ModeTrans                // explicit transactions + pmem_persist
)

// String names the mode.
func (m PersistMode) String() string {
	switch m {
	case ModeDRAMOnly:
		return "DRAM-only"
	case ModeMem:
		return "mem-mode"
	case ModeApp:
		return "app-mode"
	case ModeObject:
		return "object-mode"
	case ModeTrans:
		return "trans-mode"
	default:
		return "mode(?)"
	}
}

// Modes lists all five.
func Modes() []PersistMode {
	return []PersistMode{ModeDRAMOnly, ModeMem, ModeApp, ModeObject, ModeTrans}
}

// Fig04Row is one (mode) aggregate across the workload suite.
type Fig04Row struct {
	Mode PersistMode
	// MeanElapsed averages the per-workload execution times.
	MeanElapsed sim.Duration
	// MeanPowerW averages the memory-subsystem power.
	MeanPowerW float64
}

// memorySubsystem describes one mode's memory components for the power
// model: DRAM DIMMs working (power.Params' calibration, shared with Fig 18)
// vs refresh-only, the controller complex, and the PMEM DIMM's
// utilization-dependent draw (Optane-class modules draw ~3 W idle up to
// ~15 W busy).
type memorySubsystem struct {
	dramWorking bool
	pmemPresent bool
	pmemBusy    float64 // utilization estimate in [0,1]
}

func (m memorySubsystem) watts() float64 {
	p := power.Default()
	w := p.DRAMCtrlW
	if m.dramWorking {
		w += 6 * p.DRAMDIMMW
	} else {
		w += 6 * 0.8 // refresh-only DRAM
	}
	if m.pmemPresent {
		w += 3 + 12*m.pmemBusy
	}
	return w
}

// buildBackend assembles the mode's memory path. It returns the cache
// backend, the PMEM DIMM (nil if absent), and whether DRAM works as main
// memory.
func buildBackend(mode PersistMode, seed uint64) (cache.Backend, *pmemdimm.DIMM, bool) {
	dcfg := dram.DefaultConfig()
	ctrlLat := sim.FromNanoseconds(8)
	switch mode {
	case ModeDRAMOnly:
		return memctrl.NewDRAMController(6, dcfg, ctrlLat), nil, true
	case ModeMem:
		pd := pmemdimm.New(withSeed(seed))
		dc := memctrl.NewDRAMController(6, dcfg, ctrlLat)
		return memctrl.NewNMEM(dc, pd, memctrl.NMEMConfig{CacheBlocks: 1 << 17}), pd, true
	case ModeApp:
		pd := pmemdimm.New(withSeed(seed))
		return &memctrl.PMEMBackend{DIMM: pd, DAXLatency: sim.FromNanoseconds(2)}, pd, false
	case ModeObject:
		pd := pmemdimm.New(withSeed(seed))
		app := &memctrl.PMEMBackend{DIMM: pd, DAXLatency: sim.FromNanoseconds(2)}
		return pmdk.DefaultObjectBackend(app), pd, false
	case ModeTrans:
		pd := pmemdimm.New(withSeed(seed))
		app := &memctrl.PMEMBackend{DIMM: pd, DAXLatency: sim.FromNanoseconds(2)}
		return pmdk.DefaultTxBackend(app, pd), pd, false
	default:
		panic("experiments: unknown mode")
	}
}

func withSeed(seed uint64) pmemdimm.Config {
	cfg := pmemdimm.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// Fig04PersistControl reproduces Figure 4: average latency and memory
// subsystem power for the five persistence-control configurations across
// the workload suite. One runner cell per (mode, workload) grid point;
// the five modes of a workload share the workload's sub-seed so the
// ladder compares identical reference streams.
func Fig04PersistControl(o Options) ([]Fig04Row, *report.Table) {
	suite := specs(o)
	modes := Modes()
	type cellOut struct {
		elapsed sim.Duration
		watts   float64
	}
	var cells []runner.Cell[cellOut]
	for _, mode := range modes {
		for _, s := range suite {
			cells = append(cells, runner.Cell[cellOut]{
				Label: "fig4/" + s.Name + "/" + mode.String(),
				Run: func() cellOut {
					co := o.cell("fig4/" + s.Name)
					backend, pd, dramWorking := buildBackend(mode, co.Seed)
					gens := cpu.Fanout(s, 8, co.SampleOps, co.Seed)
					res := cpu.Run(cpu.DefaultConfig(), 0, gens, backend)

					sub := memorySubsystem{dramWorking: dramWorking, pmemPresent: pd != nil}
					if pd != nil && res.Elapsed > 0 {
						// The DIMM's draw tracks its utilization: host-level
						// requests (lookups, combining) plus media programs and
						// senses.
						st := pd.Stats()
						busyTime := sim.Duration(st.MediaReads+st.MediaWrites)*
							pmemdimm.DefaultConfig().MediaRead +
							sim.Duration(st.Reads+st.Writes)*sim.FromNanoseconds(40)
						u := float64(busyTime) / float64(res.Elapsed)
						if dramWorking {
							// Memory mode: the near cache and snarf overlap keep
							// the DIMM mostly idle.
							u *= 0.15
						}
						if u > 1 {
							u = 1
						}
						sub.pmemBusy = u
					}
					return cellOut{elapsed: res.Elapsed, watts: sub.watts()}
				},
			})
		}
	}
	outs := runner.Run(o.pool(), cells)

	rows := make([]Fig04Row, 0, len(modes))
	for mi, mode := range modes {
		var sumT sim.Duration
		var sumW float64
		for wi := range suite {
			out := outs[mi*len(suite)+wi]
			sumT += out.elapsed
			sumW += out.watts
		}
		rows = append(rows, Fig04Row{
			Mode:        mode,
			MeanElapsed: sumT / sim.Duration(len(suite)),
			MeanPowerW:  sumW / float64(len(suite)),
		})
	}

	t := report.New("Fig 4: persistence-control performance",
		"mode", "mean latency", "vs DRAM-only", "memory power", "power vs DRAM-only")
	base := rows[0]
	for _, r := range rows {
		t.Add(r.Mode.String(), report.Dur(r.MeanElapsed),
			report.X(float64(r.MeanElapsed)/float64(base.MeanElapsed)),
			report.F(r.MeanPowerW, 1)+" W",
			report.X(r.MeanPowerW/base.MeanPowerW))
	}
	t.Note("paper: mem-mode within 1.3%% of DRAM-only; app-mode +28%% latency; trans-mode 8.7x DRAM-only")
	return rows, t
}
