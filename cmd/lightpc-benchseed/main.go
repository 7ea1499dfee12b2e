// Command lightpc-benchseed snapshots the benchmark suite into
// BENCH_SEED.json: it times the quick experiment suite serially and through
// the parallel runner (-j, independent experiments fanned out), times one
// crash-sweep cell rebuilt vs forked, then runs every `go test -bench`
// benchmark once with -benchmem and captures each bench's ns/op, B/op,
// allocs/op, plus its custom paper metrics. cmd/lightpc-perfdiff compares
// two snapshots.
//
// The process pins GOMAXPROCS to the real CPU count before timing anything
// (an inherited GOMAXPROCS=1 would silently record a crippled snapshot)
// and records num_cpu alongside the speedups: a -j figure is only
// meaningful relative to the cores it ran on, and on a single-CPU host it
// is honestly ~1.0x.
//
// Usage:
//
//	lightpc-benchseed -out BENCH_SEED.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/crashpoint"
	"repro/internal/experiments"
)

// benchLine is one parsed `go test -bench -benchmem` result line. The
// allocator columns get first-class fields so perf diffs can gate on
// allocation regressions, not just time.
type benchLine struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type seed struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	SerialMs   float64 `json:"suite_serial_ms"`
	ParallelMs float64 `json:"suite_parallel_ms"`
	SpeedupX   float64 `json:"runner_speedup_x"`

	// The snapshot axis: one crash-sweep cell with a fresh Build per cut
	// (the historical cell) vs one Build forked per cut (the shipping
	// cell). Orthogonal to -j: this is single-cell wall time, the win
	// every sweep worker gets regardless of fan-out.
	SweepRebuildMs float64 `json:"sweep_rebuild_ms"`
	SweepForkMs    float64 `json:"sweep_fork_ms"`
	SweepSpeedupX  float64 `json:"sweep_speedup_x"`

	Benches []benchLine `json:"benches"`
}

// timeSuite runs the full quick experiment suite at the given worker count
// and returns its wall-clock plus the rendered output (so the two runs can
// be checked for byte-equality — a corrupted-parallelism snapshot would be
// worthless).
func timeSuite(jobs int) (float64, string) {
	o := experiments.QuickOptions()
	o.Jobs = jobs
	start := time.Now()
	out := experiments.Render(experiments.RunAll(o))
	return float64(time.Since(start).Microseconds()) / 1000, out
}

// timeSweep runs one crash-sweep cell both ways — a fresh Build for every
// cut offset, then one Build forked per cut — and returns both wall-clocks
// plus each path's concatenated CutOutcome JSON (checked for byte-equality;
// a fork that diverged from a rebuild would make the speedup meaningless).
func timeSweep() (rebuildMs, forkMs float64, rebuildOut, forkOut string, err error) {
	sc := crashpoint.Scenario{Seed: 1, Workload: "Redis", AppOps: 2000}
	const label, fuzz = "benchseed/sweep", 4

	render := func(outs []crashpoint.CutOutcome) (string, error) {
		j, err := json.Marshal(outs)
		return string(j), err
	}

	start := time.Now()
	ref, err := crashpoint.Build(sc)
	if err != nil {
		return 0, 0, "", "", err
	}
	offsets := crashpoint.CellOffsets(ref, label, fuzz)
	var outs []crashpoint.CutOutcome
	for _, off := range offsets {
		s, err := crashpoint.Build(sc)
		if err != nil {
			return 0, 0, "", "", err
		}
		outs = append(outs, s.CutAt(off))
	}
	rebuildMs = float64(time.Since(start).Microseconds()) / 1000
	if rebuildOut, err = render(outs); err != nil {
		return 0, 0, "", "", err
	}

	start = time.Now()
	base, err := crashpoint.Build(sc)
	if err != nil {
		return 0, 0, "", "", err
	}
	outs = outs[:0]
	for _, off := range crashpoint.CellOffsets(base, label, fuzz) {
		outs = append(outs, base.Fork().CutAt(off))
	}
	forkMs = float64(time.Since(start).Microseconds()) / 1000
	if forkOut, err = render(outs); err != nil {
		return 0, 0, "", "", err
	}
	return rebuildMs, forkMs, rebuildOut, forkOut, nil
}

// parseBench extracts "Benchmark..." result lines: name, ns/op, and any
// trailing custom metrics ("12.3 unit" pairs).
func parseBench(out string) []benchLine {
	var lines []benchLine
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, "Benchmark") {
			continue
		}
		f := strings.Fields(l)
		// name, iterations, value, "ns/op", then metric pairs.
		if len(f) < 4 || f[3] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		b := benchLine{Name: strings.TrimSuffix(f[0], "-"+strconv.Itoa(runtime.GOMAXPROCS(0))), NsPerOp: ns}
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[f[i+1]] = v
			}
		}
		lines = append(lines, b)
	}
	return lines
}

func main() {
	out := flag.String("out", "BENCH_SEED.json", "output path")
	flag.Parse()

	// Pin to the real core count: the snapshot must record what the
	// hardware can do, not what an inherited GOMAXPROCS happened to allow.
	runtime.GOMAXPROCS(runtime.NumCPU())

	serialMs, serialOut := timeSuite(1)
	parallelMs, parallelOut := timeSuite(0) // 0 = GOMAXPROCS
	if serialOut != parallelOut {
		fmt.Fprintln(os.Stderr, "lightpc-benchseed: serial and parallel suite outputs diverged")
		os.Exit(1)
	}

	sweepRebuildMs, sweepForkMs, sweepRebuildOut, sweepForkOut, err := timeSweep()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightpc-benchseed: sweep cell: %v\n", err)
		os.Exit(1)
	}
	if sweepRebuildOut != sweepForkOut {
		fmt.Fprintln(os.Stderr, "lightpc-benchseed: rebuild and fork sweep outcomes diverged")
		os.Exit(1)
	}

	s := seed{
		GoVersion:      runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		SerialMs:       serialMs,
		ParallelMs:     parallelMs,
		SpeedupX:       serialMs / parallelMs,
		SweepRebuildMs: sweepRebuildMs,
		SweepForkMs:    sweepForkMs,
		SweepSpeedupX:  sweepRebuildMs / sweepForkMs,
	}

	// Root package: one iteration per figure benchmark (they run whole
	// experiment suites). internal/sim: the RNG sub-stream microbenchmark.
	// internal/obs: the disabled-instrument overhead benches, under a
	// 0 allocs/op watch — a platform built without a tracer must pay nothing.
	// internal/linetab: the paged device-metadata tables, whose steady-state
	// Get/Set/Flight paths are also pinned at 0 allocs/op.
	// internal/energy: the meter charge paths — the disabled (nil) meter
	// benches are pinned at 0 allocs/op like the disabled obs instruments.
	// internal/linetab also carries the per-table Clone microbenches, and
	// internal/crashpoint the fork-vs-rebuild sweep-cell comparison.
	cmd := exec.Command("go", "test", "-run=^$", "-bench=.", "-benchtime=1x", "-benchmem", "-count=1", ".", "./internal/sim", "./internal/obs", "./internal/linetab", "./internal/energy", "./internal/crashpoint")
	// The bench subprocess must also see the real core count, both so the
	// parallel benches (which skip below 2) get their chance and so the
	// "-N" name suffix matches what parseBench strips.
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	bout, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightpc-benchseed: go test -bench: %v\n%s", err, bout)
		os.Exit(1)
	}
	s.Benches = parseBench(string(bout))
	if len(s.Benches) == 0 {
		fmt.Fprintln(os.Stderr, "lightpc-benchseed: no benchmark lines parsed")
		os.Exit(1)
	}

	j, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightpc-benchseed: %v\n", err)
		os.Exit(1)
	}
	j = append(j, '\n')
	if err := os.WriteFile(*out, j, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "lightpc-benchseed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d benches on %d CPU(s), suite %.0fms serial / %.0fms at -j %d (%.2fx), sweep cell %.0fms rebuilt / %.0fms forked (%.2fx)\n",
		*out, len(s.Benches), s.NumCPU, s.SerialMs, s.ParallelMs, s.GOMAXPROCS, s.SpeedupX,
		s.SweepRebuildMs, s.SweepForkMs, s.SweepSpeedupX)
	if s.NumCPU < 2 {
		fmt.Println("note: single-CPU host — the -j speedup above is nominal, not evidence of scaling")
	}
}
