package crashpoint

import "testing"

// sweepConfig is a small two-cell matrix for the parallelism tests.
func sweepConfig(jobs int) SweepConfig {
	return SweepConfig{
		Base:        tinyScenario(0),
		Workloads:   []string{"Redis", "SQLite"},
		Seeds:       []uint64{1, 2},
		CutsPerCell: 4,
		Jobs:        jobs,
	}
}

// TestSweepClean: the default matrix completes with zero violations and
// covers both cold and warm outcomes in every cell.
func TestSweepClean(t *testing.T) {
	rep, err := Sweep(sweepConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalViolations != 0 {
		t.Fatalf("sweep violations: %+v", rep.Cells)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("expected 4 cells, got %d", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		cold, warm := false, false
		for _, cut := range c.Cuts {
			cold = cold || cut.ColdBooted
			warm = warm || cut.Recovered
		}
		if !cold || !warm {
			t.Fatalf("cell %s grid one-sided: cold=%v warm=%v", c.Label, cold, warm)
		}
	}
}

// TestSweepParallelismInvariant: -j 1 and -j 4 merge to byte-identical
// reports (the determinism contract of DESIGN.md).
func TestSweepParallelismInvariant(t *testing.T) {
	serial, err := Sweep(sweepConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(sweepConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if string(serial.JSON()) != string(parallel.JSON()) {
		t.Fatal("sweep report differs between -j 1 and -j 4")
	}
}

// TestSweepZeroCutsIsGridOnly: CutsPerCell 0 cuts the stratified grid and
// adds no fuzz offsets.
func TestSweepZeroCutsIsGridOnly(t *testing.T) {
	cfg := SweepConfig{Base: tinyScenario(1), Workloads: []string{"Redis"}, Jobs: 1}
	rep, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := tinyScenario(1)
	sc.Workload = "Redis"
	base, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rep.Cells[0].Cuts), len(CellOffsets(base, rep.Cells[0].Label, 0)); got != want {
		t.Fatalf("CutsPerCell 0 ran %d cuts, want the %d grid cuts", got, want)
	}
}

// TestSweepSeedZero: a seed-0 cell is simulated and reported as seed 0,
// not folded into seed 1.
func TestSweepSeedZero(t *testing.T) {
	cfg := sweepConfig(1)
	cfg.Workloads, cfg.Seeds = []string{"Redis"}, []uint64{0, 1}
	rep, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := rep.Cells[0], rep.Cells[1]
	if c0.Label != "crash/Redis/seed0" || c0.Seed != 0 {
		t.Fatalf("cell %s reports seed %d, want seed 0", c0.Label, c0.Seed)
	}
	if c0.Cuts[len(c0.Cuts)-1].StopTotalPs == c1.Cuts[len(c1.Cuts)-1].StopTotalPs {
		t.Error("seed 0 and seed 1 cells stopped in the same time")
	}
}

// TestSweepRejectsNegativeCuts: a negative fuzz count is an error, not 0.
func TestSweepRejectsNegativeCuts(t *testing.T) {
	cfg := sweepConfig(1)
	cfg.CutsPerCell = -1
	if _, err := Sweep(cfg); err == nil {
		t.Fatal("Sweep accepted CutsPerCell -1")
	}
}
