package crashpoint

import (
	"testing"

	lightpc "repro"
	"repro/internal/kernel"
	"repro/internal/power"
	"repro/internal/sim"
)

// TestPresets pins the two presets: both validate, the paper system takes
// its sizes from kernel.DefaultConfig, and both budget against ATX.
func TestPresets(t *testing.T) {
	k := kernel.DefaultConfig()
	paper := PaperSystem()
	if paper.Cores != k.Cores || paper.UserProcs != k.UserProcs ||
		paper.KernelProcs != k.KernelProcs || paper.Devices != k.Devices {
		t.Errorf("PaperSystem sizes %d/%d/%d/%d, want kernel.DefaultConfig's %d/%d/%d/%d",
			paper.Cores, paper.UserProcs, paper.KernelProcs, paper.Devices,
			k.Cores, k.UserProcs, k.KernelProcs, k.Devices)
	}
	for name, sc := range map[string]Scenario{"PaperSystem": paper, "CutSystem": CutSystem()} {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s does not validate: %v", name, err)
		}
		psu, window, err := sc.Supply()
		if err != nil || psu.Name != power.ATX().Name || window != power.ATX().SpecHoldUp {
			t.Errorf("%s supply = %s, %v, %v; want ATX, 16ms", name, psu.Name, window, err)
		}
	}
}

// TestValidateRejects names every invalid field: a size below 1, a
// negative hold-up, an unknown kind, PSU or workload.
func TestValidateRejects(t *testing.T) {
	for name, mut := range map[string]func(*Scenario){
		"Cores":        func(sc *Scenario) { sc.Cores = 0 },
		"UserProcs":    func(sc *Scenario) { sc.UserProcs = -3 },
		"KernelProcs":  func(sc *Scenario) { sc.KernelProcs = 0 },
		"Devices":      func(sc *Scenario) { sc.Devices = -5 },
		"Ticks":        func(sc *Scenario) { sc.Ticks = 0 },
		"AppOps":       func(sc *Scenario) { sc.AppOps = 0 },
		"OpsPerCommit": func(sc *Scenario) { sc.OpsPerCommit = 0 },
		"Holdup":       func(sc *Scenario) { sc.Holdup = -sim.Millisecond },
		"Kind":         func(sc *Scenario) { sc.Kind = lightpc.Kind(9) },
		"PSU":          func(sc *Scenario) { sc.PSU = "xyz" },
		"Workload":     func(sc *Scenario) { sc.Workload = "nosuch" },
	} {
		sc := PaperSystem()
		mut(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("invalid %s validated", name)
		}
	}
}

// TestBuildFillsFromCutSystem: Build fills a partial literal's zero fields
// from CutSystem and maps LegacyPC to LightPC, but keeps seed 0.
func TestBuildFillsFromCutSystem(t *testing.T) {
	s, err := Build(Scenario{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := CutSystem()
	want.Seed, want.Cores = 0, 2
	if s.Scenario != want {
		t.Fatalf("Build filled %+v, want %+v", s.Scenario, want)
	}
	if s.Platform.Kind() != lightpc.LightPCFull {
		t.Fatalf("built a %v platform, want LightPC", s.Platform.Kind())
	}
}
