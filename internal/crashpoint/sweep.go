package crashpoint

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sng"
)

// SweepConfig shapes a cut-matrix sweep: every (workload, seed) cell gets a
// stratified-plus-fuzzed grid of cut offsets across the hold-up window.
type SweepConfig struct {
	// Base is the scenario template; each cell overrides Workload and Seed.
	Base Scenario

	Workloads []string
	Seeds     []uint64

	// CutsPerCell is how many seeded fuzz offsets each cell adds on top of
	// the stratified grid (phase starts, midpoints, and window edges); 0
	// cuts the grid only.
	CutsPerCell int

	// Jobs caps runner parallelism (0 = GOMAXPROCS, 1 = serial). The merged
	// report is byte-identical at any setting.
	Jobs int
}

// CellResult is one (workload, seed) cell of the sweep.
type CellResult struct {
	Label      string       `json:"label"`
	Workload   string       `json:"workload"`
	Seed       uint64       `json:"seed"`
	Cuts       []CutOutcome `json:"cuts"`
	Violations int          `json:"violations"`
}

// SweepReport is the merged matrix, in canonical cell order.
type SweepReport struct {
	Cells           []CellResult `json:"cells"`
	TotalCuts       int          `json:"total_cuts"`
	TotalViolations int          `json:"total_violations"`
}

// JSON renders the report with stable field order and indentation.
func (r SweepReport) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// CellOffsets derives the cut grid for one cell from its already-built
// system: the stratified instants a reference Stop exposes (phase starts,
// phase midpoints, the instants just around the commit, the window itself)
// plus seeded fuzz offsets derived from the cell label alone — never from
// scheduling. The reference Stop consumes a fork of base, not base itself,
// so the same built system then feeds every cut.
func CellOffsets(base *System, label string, fuzz int) []sim.Duration {
	stopRep := base.Fork().Platform.SnG().Stop(0, sim.Time(1<<62))
	return gridFromStop(base.Scenario, label, fuzz, base.Window, stopRep)
}

// gridFromStop turns one reference Stop report into the stratified+fuzzed
// offset grid.
func gridFromStop(sc Scenario, label string, fuzz int, window sim.Duration, stopRep sng.StopReport) []sim.Duration {
	set := map[sim.Duration]struct{}{0: {}, window: {}}
	add := func(d sim.Duration) {
		if d >= 0 && d <= window {
			set[d] = struct{}{}
		}
	}
	for _, ph := range stopRep.Phases {
		add(sim.Duration(ph.Start))
		add(sim.Duration(ph.Start) + ph.Dur/2)
	}
	if stopRep.Completed {
		add(stopRep.Total - 1)
		add(stopRep.Total)
		add(stopRep.Total + 1)
	}
	rng := sim.NewRNG(sim.SubSeed(sc.Seed, label+"/offsets"))
	for i := 0; i < fuzz; i++ {
		add(sim.Duration(rng.Uint64n(uint64(window) + 1)))
	}

	out := make([]sim.Duration, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sweep fans the cut matrix over the runner pool: one cell per (workload,
// seed), each cell building its System once and forking it for every offset
// in its grid (a cut consumes its system, so each offset gets a fresh
// fork). Cells share no state and derive all randomness from their labels,
// so the merged report is byte-identical at any parallelism.
func Sweep(cfg SweepConfig) (SweepReport, error) {
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = []string{cfg.Base.filled().Workload}
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []uint64{cfg.Base.Seed}
	}
	if cfg.CutsPerCell < 0 {
		return SweepReport{}, fmt.Errorf("crashpoint: negative CutsPerCell %d", cfg.CutsPerCell)
	}

	type cellIn struct {
		label string
		sc    Scenario
	}
	var cells []cellIn
	for _, wl := range cfg.Workloads {
		for _, seed := range cfg.Seeds {
			sc := cfg.Base
			sc.Workload = wl
			sc.Seed = seed
			cells = append(cells, cellIn{fmt.Sprintf("crash/%s/seed%d", wl, seed), sc})
		}
	}

	type cellOut struct {
		res CellResult
		err error
	}
	results := runner.Map(runner.Pool{Workers: cfg.Jobs}, cells,
		func(_ int, c cellIn) string { return c.label },
		func(label string, c cellIn) cellOut {
			base, err := Build(c.sc)
			if err != nil {
				return cellOut{err: err}
			}
			offsets := CellOffsets(base, label, cfg.CutsPerCell)
			res := CellResult{Label: label, Workload: c.sc.Workload, Seed: c.sc.Seed}
			for _, off := range offsets {
				out := base.Fork().CutAt(off)
				res.Violations += len(out.Violations)
				res.Cuts = append(res.Cuts, out)
			}
			return cellOut{res: res}
		})

	var rep SweepReport
	for _, r := range results {
		if r.err != nil {
			return rep, r.err
		}
		rep.Cells = append(rep.Cells, r.res)
		rep.TotalCuts += len(r.res.Cuts)
		rep.TotalViolations += r.res.Violations
	}
	return rep, nil
}
