package crashpoint

import (
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// tinyScenario keeps system builds fast for grid tests.
func tinyScenario(seed uint64) Scenario {
	return Scenario{
		Seed:        seed,
		Cores:       2,
		UserProcs:   8,
		KernelProcs: 6,
		Devices:     12,
		Ticks:       3,
		AppOps:      48,
	}
}

// TestCutGridClean cuts one scenario at a stratified grid of offsets; no
// cut may violate any invariant, early cuts must cold-boot, and the full
// window must recover warm.
func TestCutGridClean(t *testing.T) {
	sc := tinyScenario(1)
	ref, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	full := ref.CutAt(ref.Window)
	if len(full.Violations) != 0 {
		t.Fatalf("full-window cut violations: %v", full.Violations)
	}
	if !full.Completed || !full.Recovered {
		t.Fatalf("full-window cut did not recover warm: %+v", full)
	}
	total := sim.Duration(full.StopTotalPs)

	offsets := []sim.Duration{0, 1, total / 4, total / 2, total - 1, total, total + 1}
	for _, off := range offsets {
		s, err := Build(sc)
		if err != nil {
			t.Fatal(err)
		}
		out := s.CutAt(off)
		if len(out.Violations) != 0 {
			t.Fatalf("cut at %v: violations: %v", off, out.Violations)
		}
		if wantComplete := off >= total; out.Completed != wantComplete {
			t.Fatalf("cut at %v: completed=%v, want %v (total %v)",
				off, out.Completed, wantComplete, total)
		}
		if out.Completed && !out.Recovered {
			t.Fatalf("cut at %v: committed but not recovered", off)
		}
		if !out.Completed && !out.ColdBooted {
			t.Fatalf("cut at %v: uncommitted but not cold-booted", off)
		}
	}
}

// TestCutMonotone verifies the deadline mechanism is monotone: once an
// offset commits, every later offset commits too.
func TestCutMonotone(t *testing.T) {
	sc := tinyScenario(2)
	ref, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	full := ref.CutAt(ref.Window)
	if !full.Completed {
		t.Fatalf("window does not fit Stop: %+v", full)
	}
	total := sim.Duration(full.StopTotalPs)

	committed := false
	for _, off := range []sim.Duration{total / 3, total - 1, total, total + total/3} {
		s, err := Build(sc)
		if err != nil {
			t.Fatal(err)
		}
		out := s.CutAt(off)
		if committed && !out.Completed {
			t.Fatalf("non-monotone: offset %v did not commit after an earlier one did", off)
		}
		committed = committed || out.Completed
	}
	if !committed {
		t.Fatal("no probed offset committed")
	}
}

// TestTornEPCutDetected proves the checker catches a commit word that does
// not cover a complete image: poisoning the commit before an early cut
// makes Stop incomplete while HasCommit reads true — the I3 violation must
// fire, and the bogus warm recovery must be flagged too.
func TestTornEPCutDetected(t *testing.T) {
	s, err := Build(tinyScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	s.Platform.Kernel().Boot.Commit() // adversarial: commit without an image
	out := s.CutAt(1)
	if out.Completed {
		t.Fatal("1 ps cut completed Stop")
	}
	found := map[string]bool{}
	for _, v := range out.Violations {
		found[v.Invariant] = true
	}
	if !found[InvTornEPCut] {
		t.Fatalf("torn EP-cut not flagged: %v", out.Violations)
	}
	if !found[InvRestorable] {
		t.Fatalf("bogus warm recovery not flagged: %v", out.Violations)
	}
}

// TestCutOutcomeDeterministic: same scenario, same offset, same bytes.
func TestCutOutcomeDeterministic(t *testing.T) {
	run := func() CutOutcome {
		s, err := Build(tinyScenario(4))
		if err != nil {
			t.Fatal(err)
		}
		return s.CutAt(s.Window / 2)
	}
	a, _ := json.Marshal(run())
	b, _ := json.Marshal(run())
	if string(a) != string(b) {
		t.Fatalf("non-deterministic outcomes:\n%s\n%s", a, b)
	}
}

// TestBuildRejectsNegativeSizes pins that a negative scenario size is an
// error rather than being mapped to a default, while zero still selects
// the default.
func TestBuildRejectsNegativeSizes(t *testing.T) {
	for name, mut := range map[string]func(*Scenario){
		"Cores":        func(sc *Scenario) { sc.Cores = -1 },
		"UserProcs":    func(sc *Scenario) { sc.UserProcs = -3 },
		"KernelProcs":  func(sc *Scenario) { sc.KernelProcs = -1 },
		"Devices":      func(sc *Scenario) { sc.Devices = -5 },
		"Ticks":        func(sc *Scenario) { sc.Ticks = -1 },
		"AppOps":       func(sc *Scenario) { sc.AppOps = -1 },
		"OpsPerCommit": func(sc *Scenario) { sc.OpsPerCommit = -2 },
		"Holdup":       func(sc *Scenario) { sc.Holdup = -sim.Millisecond },
	} {
		sc := tinyScenario(1)
		mut(&sc)
		if _, err := Build(sc); err == nil {
			t.Errorf("negative %s: Build succeeded, want an error", name)
		}
	}
	sc := tinyScenario(1)
	sc.Cores, sc.Ticks, sc.OpsPerCommit, sc.Holdup = 0, 0, 0, 0
	if _, err := Build(sc); err != nil {
		t.Fatalf("zero sizes must select the defaults: %v", err)
	}
}
