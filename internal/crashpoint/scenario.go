package crashpoint

import (
	"cmp"
	"fmt"

	lightpc "repro"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scenario is one simulated system and its power event: which platform to
// build, how to age it, what to run on it, and the supply whose hold-up
// window bounds the Stop. It is the single input of Build, of
// drive.SnG/Sweep, and of the lightpc-sng, lightpc-obs and lightpc-crash
// commands. Start from a preset (PaperSystem or CutSystem), override
// fields, and Validate.
type Scenario struct {
	// Kind selects the platform.
	Kind lightpc.Kind

	Seed        uint64
	Cores       int
	UserProcs   int
	KernelProcs int
	Devices     int

	// Ticks pre-ages the kernel scheduler before the power event.
	Ticks int

	// Workload names the Table II spec behind the timed run and Build's
	// application phase ("" = none).
	Workload string

	// SampleOps sizes the timed run of Workload before the power event
	// (see Sample); 0 skips it.
	SampleOps uint64

	// AppOps is how many application persistence operations Build stages:
	// journal puts/commits, pool transactions, checkpoint commits,
	// datastore line writes, partial checkpoint migrations.
	AppOps int

	// OpsPerCommit is the journal's transaction size.
	OpsPerCommit int

	// PSU names the supply (power.LookupPSU); Holdup overrides its spec
	// hold-up window when non-zero (see Supply).
	PSU    string
	Holdup sim.Duration

	// Energy attaches per-device joule meters to the platform.
	Energy bool
}

// CutSystem is the modest busy system crash searches rebuild for every
// cell: 4 cores, 24 user processes, 16 kernel threads and 64 devices on a
// LightPC, aged 6 ticks, with 96 Redis-driven application operations
// committed 5 to a transaction, on the ATX supply. It runs no timed
// workload.
func CutSystem() Scenario {
	return Scenario{
		Kind:         lightpc.LightPCFull,
		Seed:         1,
		Cores:        4,
		UserProcs:    24,
		KernelProcs:  16,
		Devices:      64,
		Ticks:        6,
		Workload:     "Redis",
		AppOps:       96,
		OpsPerCommit: 5,
		PSU:          "atx",
	}
}

// PaperSystem is the paper's busy system: the sizes of
// kernel.DefaultConfig on a LightPC, aged 20 ticks, on the ATX supply,
// with no workload. Setting Workload adds a timed run of the platform's
// default sample size.
func PaperSystem() Scenario {
	cfg := lightpc.DefaultConfig(lightpc.LightPCFull)
	sc := CutSystem()
	sc.Cores = cfg.Kernel.Cores
	sc.UserProcs = cfg.Kernel.UserProcs
	sc.KernelProcs = cfg.Kernel.KernelProcs
	sc.Devices = cfg.Kernel.Devices
	sc.Ticks = 20
	sc.Workload = ""
	sc.SampleOps = cfg.SampleOps
	return sc
}

// Validate rejects a scenario no preset could have produced: a size below
// 1, a negative Holdup, or an unknown Kind, PSU or Workload.
func (sc Scenario) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Cores", sc.Cores},
		{"UserProcs", sc.UserProcs},
		{"KernelProcs", sc.KernelProcs},
		{"Devices", sc.Devices},
		{"Ticks", sc.Ticks},
		{"AppOps", sc.AppOps},
		{"OpsPerCommit", sc.OpsPerCommit},
	} {
		if f.v < 1 {
			return fmt.Errorf("scenario: %s %d: want at least 1", f.name, f.v)
		}
	}
	if sc.Holdup < 0 {
		return fmt.Errorf("scenario: negative Holdup %v (0 means the PSU spec)", sc.Holdup)
	}
	switch sc.Kind {
	case lightpc.LegacyPC, lightpc.LightPCB, lightpc.LightPCFull:
	default:
		return fmt.Errorf("scenario: unknown Kind %v", sc.Kind)
	}
	if _, _, err := sc.Supply(); err != nil {
		return err
	}
	if _, ok := workload.ByName(sc.Workload); !ok && sc.Workload != "" {
		return fmt.Errorf("scenario: unknown workload %q", sc.Workload)
	}
	return nil
}

// Supply resolves the power event: the named PSU, and the hold-up window —
// Holdup when set, the PSU's spec window otherwise.
func (sc Scenario) Supply() (power.PSU, sim.Duration, error) {
	psu, err := power.LookupPSU(sc.PSU)
	if err != nil {
		return psu, 0, fmt.Errorf("scenario: %w", err)
	}
	return psu, cmp.Or(sc.Holdup, psu.SpecHoldUp), nil
}

// Config is the platform configuration the scenario describes.
func (sc Scenario) Config() lightpc.Config {
	cfg := lightpc.DefaultConfig(sc.Kind)
	cfg.Seed = sc.Seed
	cfg.CPU.Cores = sc.Cores
	cfg.Kernel.Cores = sc.Cores
	cfg.Kernel.UserProcs = sc.UserProcs
	cfg.Kernel.KernelProcs = sc.KernelProcs
	cfg.Kernel.Devices = sc.Devices
	cfg.SampleOps = sc.SampleOps
	cfg.Energy = sc.Energy
	return cfg
}

// Sample is the timed run: it executes Workload on p when both Workload
// and SampleOps are set, and returns the result (nil when skipped).
func (sc Scenario) Sample(p *lightpc.Platform) *lightpc.RunResult {
	spec, ok := workload.ByName(sc.Workload)
	if !ok || sc.SampleOps == 0 {
		return nil
	}
	rr := p.Run(spec)
	return &rr
}

// filled is Build's view of sc: every zero field except Seed, SampleOps,
// Holdup and Energy (whose zeros are meaningful) taken from CutSystem.
// Kind's zero is LegacyPC, so it maps to LightPCFull: the cut invariants
// assume persistent PCBs, which LegacyPC lacks (its hibernation path is
// covered by CheckHibernate instead). Only Build fills, because the
// perfbench harness and benchseed pass it partial literals; every other
// entry point takes a whole scenario.
func (sc Scenario) filled() Scenario {
	d := CutSystem()
	sc.Kind = cmp.Or(sc.Kind, d.Kind)
	sc.Cores = cmp.Or(sc.Cores, d.Cores)
	sc.UserProcs = cmp.Or(sc.UserProcs, d.UserProcs)
	sc.KernelProcs = cmp.Or(sc.KernelProcs, d.KernelProcs)
	sc.Devices = cmp.Or(sc.Devices, d.Devices)
	sc.Ticks = cmp.Or(sc.Ticks, d.Ticks)
	sc.Workload = cmp.Or(sc.Workload, d.Workload)
	sc.AppOps = cmp.Or(sc.AppOps, d.AppOps)
	sc.OpsPerCommit = cmp.Or(sc.OpsPerCommit, d.OpsPerCommit)
	sc.PSU = cmp.Or(sc.PSU, d.PSU)
	return sc
}
