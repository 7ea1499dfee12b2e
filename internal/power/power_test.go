package power

import (
	"testing"

	"repro/internal/sim"
)

func TestCalibrationMatchesPaper(t *testing.T) {
	p := Default()
	legacy := p.Watts(LegacyPCBusy())
	light := p.Watts(LightPCBusy())
	// Section VI-A: LegacyPC 18.9 W, LightPC 5.3 W, LightPC = 28% of
	// LegacyPC (73% lower).
	if legacy < 17 || legacy > 21 {
		t.Fatalf("LegacyPC busy = %.1f W, want ~18.9", legacy)
	}
	if light < 4.5 || light > 6.0 {
		t.Fatalf("LightPC busy = %.1f W, want ~5.3", light)
	}
	ratio := light / legacy
	if ratio < 0.24 || ratio > 0.33 {
		t.Fatalf("LightPC/LegacyPC power = %.2f, want ~0.28", ratio)
	}
}

func TestWattsComposition(t *testing.T) {
	p := Params{CoreActiveW: 1, CoreIdleW: 0.5, DRAMDIMMW: 2, DRAMCtrlW: 3,
		PRAMDIMMW: 0.1, PSMW: 0.2, PMEMDIMMW: 4}
	s := State{ActiveCores: 2, IdleCores: 2, DRAMDIMMs: 1, DRAMCtrl: true,
		PRAMDIMMs: 2, PSM: true, PMEMDIMMs: 1}
	want := 2.0 + 1.0 + 2.0 + 3.0 + 0.2 + 0.2 + 4.0
	if got := p.Watts(s); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("Watts = %v, want %v", got, want)
	}
}

func TestEnergyJ(t *testing.T) {
	if got := EnergyJ(10, 100*sim.Millisecond); got != 1.0 {
		t.Fatalf("EnergyJ = %v", got)
	}
}

func TestPSUHoldUpMatchesMeasurement(t *testing.T) {
	// Figure 8a: ATX 22 ms, Server 55 ms at full (18.9 W) load.
	atx := ATX().HoldUp(18.9)
	if atx < 21*sim.Millisecond || atx > 23*sim.Millisecond {
		t.Fatalf("ATX busy hold-up = %v, want ~22 ms", atx)
	}
	srv := Server().HoldUp(18.9)
	if srv < 54*sim.Millisecond || srv > 56*sim.Millisecond {
		t.Fatalf("Server busy hold-up = %v, want ~55 ms", srv)
	}
}

func TestPSUHoldUpLongerWhenIdle(t *testing.T) {
	p := Default()
	idle := State{ActiveCores: 1, IdleCores: 7, DRAMDIMMs: 6, DRAMCtrl: true}
	busy := LegacyPCBusy()
	atx := ATX()
	if atx.HoldUp(p.Watts(idle)) <= atx.HoldUp(p.Watts(busy)) {
		t.Fatal("idle hold-up should exceed busy hold-up")
	}
}

func TestPSUMeasuredExceedsATXSpec(t *testing.T) {
	// Section III-B: both PSUs hold longer than the 16 ms the ATX spec
	// declares, even fully utilized; SnG still budgets for the spec.
	atx := ATX()
	if atx.HoldUp(18.9) <= atx.SpecHoldUp {
		t.Fatal("measured ATX hold-up should beat the 16 ms spec")
	}
	if atx.SpecHoldUp != 16*sim.Millisecond {
		t.Fatalf("ATX spec hold-up = %v", atx.SpecHoldUp)
	}
}

func TestPSUZeroLoad(t *testing.T) {
	if ATX().HoldUp(0) != sim.Second {
		t.Fatal("zero-load hold-up should saturate")
	}
}
