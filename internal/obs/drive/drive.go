// Package drive runs instrumented LightPC scenarios for the observability
// tooling: it assembles a platform, attaches a tracer and a metrics
// registry to every layer that accepts one, executes a seeded
// workload + power-failure + recovery sequence, and hands back the
// instruments alongside the SnG reports.
//
// Everything here inherits the repo's determinism contract: a scenario's
// bytes (trace JSON, Prometheus text, phase table) are a pure function of
// its Scenario values, and Sweep merges per-cell instruments in canonical
// cell order so output is identical at any -j level.
package drive

import (
	"fmt"
	"strings"

	lightpc "repro"
	"repro/internal/crashpoint"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sng"
)

// Result bundles one scenario's reports with the instruments that
// recorded them.
type Result struct {
	Scenario crashpoint.Scenario

	Run   *lightpc.RunResult // nil when no workload ran
	Stop  sng.StopReport
	Go    sng.GoReport
	GoErr error

	Tracer   *obs.Tracer
	Registry *obs.Registry

	// Energy is the platform's meter set (nil unless Scenario.Energy);
	// Supply is the resolved PSU, whose stored joules bound the Stop run.
	Energy *energy.Set
	Supply power.PSU
}

// SnG executes one instrumented scenario: validate it, build the
// platform, wire the observability layer through it, run the timed
// workload (crashpoint.Scenario.Sample), age the scheduler, pull the power
// against the hold-up window, and recover.
func SnG(sc crashpoint.Scenario) (*Result, error) {
	return run(sc, "")
}

// run is SnG with a metric-name prefix, so Sweep cells merge into one
// Prometheus document without name collisions.
func run(sc crashpoint.Scenario, prefix string) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	psu, window, err := sc.Supply()
	if err != nil {
		return nil, err
	}
	p := lightpc.New(sc.Config())

	res := &Result{
		Scenario: sc,
		Tracer:   obs.NewTracer(),
		Registry: obs.NewRegistry(),
		Energy:   p.Energy(),
		Supply:   psu,
	}
	p.SnG().Obs = res.Tracer
	energy.RegisterSet(res.Registry, prefix+"energy_", res.Energy)
	if ps := p.PSM(); ps != nil {
		ps.SetTracer(res.Tracer)
		ps.RegisterMetrics(res.Registry, prefix+"psm_")
	}
	if d := p.DRAM(); d != nil {
		d.RegisterMetrics(res.Registry, prefix+"dram_")
	}
	p.Kernel().RegisterMetrics(res.Registry, prefix+"kernel_")

	if res.Run = sc.Sample(p); res.Run != nil {
		obs.RegisterTraceStats(res.Registry, prefix+"cpu_", &res.Run.Stats)
	}

	p.Kernel().Tick(sc.Ticks)

	// PowerFail with the (possibly overridden) window, then Go at the
	// same origin the CLI uses.
	res.Stop = p.SnG().Stop(0, sim.Time(window))
	p.Kernel().PowerLoss()
	res.Go, res.GoErr = p.Recover(0)
	return res, nil
}

// PhaseTable renders the run's SnG decomposition as an aligned table:
// every Stop and Go phase with its start, duration, and share of the
// hold-up budget.
func (res *Result) PhaseTable() string {
	sc := res.Scenario
	t := report.New(
		fmt.Sprintf("SnG phase timeline — %s, seed %d", sc.Kind, sc.Seed),
		"phase", "start", "duration", "share of budget")
	budget := res.Stop.Budget
	share := func(d sim.Duration) string {
		if budget <= 0 {
			return "-"
		}
		return report.Pct(float64(d) / float64(budget))
	}
	for _, ph := range res.Stop.Phases {
		t.Add("stop/"+ph.Name, report.Dur(ph.Start.Sub(0)), report.Dur(ph.Dur), share(ph.Dur))
	}
	t.Add("stop/total", report.Dur(0), report.Dur(res.Stop.Total), share(res.Stop.Total))
	for _, ph := range res.Go.Phases {
		t.Add("go/"+ph.Name, report.Dur(ph.Start.Sub(0)), report.Dur(ph.Dur), "-")
	}
	t.Add("go/total", report.Dur(0), report.Dur(res.Go.Total), "-")

	t.Note("hold-up budget: %v (%s)", budget, sc.PSU)
	if res.Stop.Completed {
		t.Note("EP-cut committed %v before the rails dropped", budget-res.Stop.Total)
	} else {
		t.Note("budget exceeded in phase %q — no EP-cut, recovery cold boots", res.Stop.OverrunPhase)
	}
	if res.GoErr != nil {
		t.Note("Go: %v", res.GoErr)
	}
	return t.String()
}

// EnergyTable renders the run's per-phase per-device joule attribution in
// milli-joules: one row per SnG phase, one column per metered device with
// the per-core meters folded into a single "cores" column, plus a hold-up
// feasibility note checking the Stop path's measured draw against the
// PSU's stored energy.
func (res *Result) EnergyTable() string {
	if res.Energy == nil {
		return "energy accounting disabled (Scenario.Energy=false)\n"
	}
	meters := res.Energy.Meters()
	// Column layout: non-core meters keep their own column, all core
	// meters share one, and the row closes with the phase total.
	cols := []string{"phase"}
	colOf := make([]int, len(meters))
	coresCol := -1
	for i, m := range meters {
		if strings.HasPrefix(m.Name(), "core") {
			if coresCol < 0 {
				coresCol = len(cols)
				cols = append(cols, "cores mJ")
			}
			colOf[i] = coresCol
			continue
		}
		colOf[i] = len(cols)
		cols = append(cols, m.Name()+" mJ")
	}
	cols = append(cols, "total mJ")
	sc := res.Scenario
	t := report.New(
		fmt.Sprintf("SnG energy attribution — %s, seed %d", sc.Kind, sc.Seed), cols...)

	var stopJ float64
	row := func(prefix string, pe sng.PhaseEnergy) {
		vals := make([]float64, len(cols))
		for i, dj := range pe.ByDevice {
			vals[colOf[i]] += dj.J
		}
		cells := make([]string, 0, len(cols))
		cells = append(cells, prefix+pe.Phase)
		for _, v := range vals[1 : len(cols)-1] {
			cells = append(cells, report.F(v*1e3, 4))
		}
		cells = append(cells, report.F(pe.J*1e3, 4))
		t.Add(cells...)
	}
	for _, pe := range res.Stop.Energy {
		row("stop/", pe)
		stopJ += pe.J
	}
	for _, pe := range res.Go.Energy {
		row("go/", pe)
	}

	if res.Supply.StoredJ > 0 {
		verdict := "feasible"
		if stopJ > res.Supply.StoredJ {
			verdict = "INFEASIBLE"
		}
		t.Note("stop path drew %s mJ of the %s PSU's %s mJ stored (%s) — hold-up %s",
			report.F(stopJ*1e3, 4), res.Supply.Name,
			report.F(res.Supply.StoredJ*1e3, 1),
			report.Pct(stopJ/res.Supply.StoredJ), verdict)
	}
	t.Note("cumulative device energy (workload + stop + go): %s mJ",
		report.F(res.Energy.TotalJ()*1e3, 4))
	return t.String()
}

// ChromeTrace renders the run's tracer as one Chrome trace-event document.
func (res *Result) ChromeTrace() []byte {
	return obs.ChromeTraceBytes([]string{res.label()}, res.Tracer)
}

// label names the run for trace process rows and sweep cells.
func (res *Result) label() string {
	return fmt.Sprintf("%s/seed%d", res.Scenario.Kind, res.Scenario.Seed)
}

// SweepResult is a set of per-seed results merged in canonical order.
type SweepResult struct {
	Cells []*Result
}

// Sweep runs the scenario once per seed on a deterministic worker pool
// (jobs ≤ 0 means GOMAXPROCS, 1 forces serial) and returns the cells in
// seed order — the same bytes at any parallelism.
func Sweep(base crashpoint.Scenario, seeds []uint64, jobs int) (*SweepResult, error) {
	cells := make([]runner.Cell[*Result], len(seeds))
	errs := make([]error, len(seeds))
	for i, seed := range seeds {
		i, seed := i, seed
		sc := base
		sc.Seed = seed
		cells[i] = runner.Cell[*Result]{
			Label: fmt.Sprintf("sng/seed%d", seed),
			Run: func() *Result {
				r, err := run(sc, fmt.Sprintf("cell%d_", i))
				errs[i] = err
				return r
			},
		}
	}
	out := runner.Run(runner.Pool{Workers: jobs}, cells)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sw := &SweepResult{Cells: out}
	for i, c := range sw.Cells {
		c.Tracer.SetPid(i)
	}
	return sw, nil
}

// ChromeTrace merges every cell's tracer into one document, one process
// per cell, in cell order.
func (s *SweepResult) ChromeTrace() []byte {
	names := make([]string, len(s.Cells))
	tracers := make([]*obs.Tracer, len(s.Cells))
	for i, c := range s.Cells {
		names[i] = c.label()
		tracers[i] = c.Tracer
	}
	return obs.ChromeTraceBytes(names, tracers...)
}

// Prometheus concatenates the per-cell registries in cell order. Cell
// metric names carry a cell<i>_ prefix, so families never collide.
func (s *SweepResult) Prometheus() []byte {
	var b strings.Builder
	for _, c := range s.Cells {
		b.Write(c.Registry.PrometheusBytes())
	}
	return []byte(b.String())
}

// PhaseTables renders every cell's phase table in cell order.
func (s *SweepResult) PhaseTables() string {
	var b strings.Builder
	for i, c := range s.Cells {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(c.PhaseTable())
	}
	return b.String()
}

// EnergyTables renders every cell's energy table in cell order.
func (s *SweepResult) EnergyTables() string {
	var b strings.Builder
	for i, c := range s.Cells {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(c.EnergyTable())
	}
	return b.String()
}
