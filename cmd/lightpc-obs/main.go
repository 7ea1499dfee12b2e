// Command lightpc-obs drives an instrumented Stop-and-Go scenario and
// exports what the observability layer recorded: a Chrome trace-event JSON
// timeline (open it in Perfetto or chrome://tracing), a Prometheus-text
// metrics snapshot, and an ASCII phase table against the PSU hold-up
// budget. All output is deterministic: same flags, same bytes.
//
// Usage:
//
//	lightpc-obs -trace out.json -metrics out.prom
//	lightpc-obs -platform full -workload Redis -seed 7 -trace redis.json
//	lightpc-obs -mode sweep -seeds 1,2,3,4 -j 4 -trace sweep.json
//	lightpc-obs -mode energy -workload Redis    # per-phase joule breakdown
//	lightpc-obs -check-trace out.json        # validate and exit
//	lightpc-obs -check-prom out.prom         # validate and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	lightpc "repro"
	"repro/internal/crashpoint"
	"repro/internal/obs"
	"repro/internal/obs/drive"
	"repro/internal/sim"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lightpc-obs: "+format+"\n", args...)
	os.Exit(1)
}

// usagef reports an invalid flag value and exits 2, the flag package's
// status for a usage error.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lightpc-obs: "+format+"\n", args...)
	os.Exit(2)
}

func writeFile(path string, data []byte) {
	if path == "" {
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
}

func parseSeeds(s string) []uint64 {
	var out []uint64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			usagef("bad seed %q: %v", f, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		usagef("no seeds in %q", s)
	}
	return out
}

func main() {
	sc := crashpoint.PaperSystem()
	var (
		mode     = flag.String("mode", "sng", "sng (one scenario) | sweep (one cell per seed) | energy (joule breakdown)")
		platform = flag.String("platform", "full", "platform: legacy | b | full")
		seeds    = flag.String("seeds", "1,2,3,4", "comma-separated seeds (sweep mode)")
		jobs     = flag.Int("j", 1, "sweep workers (0 = GOMAXPROCS); output is identical at any level")
		holdup   = flag.Duration("holdup", 0, "override hold-up window (0 = PSU spec)")

		traceOut = flag.String("trace", "", "write Chrome trace-event JSON here")
		promOut  = flag.String("metrics", "", "write Prometheus text snapshot here")
		jsonOut  = flag.String("metrics-json", "", "write JSON metrics snapshot here")
		quiet    = flag.Bool("q", false, "suppress the phase table")

		checkTrace = flag.String("check-trace", "", "validate a Chrome trace JSON file and exit")
		checkProm  = flag.String("check-prom", "", "validate a Prometheus text file and exit")
	)
	flag.Uint64Var(&sc.Seed, "seed", sc.Seed, "simulation seed (sng mode)")
	flag.IntVar(&sc.Cores, "cores", sc.Cores, "core count")
	flag.IntVar(&sc.UserProcs, "user", sc.UserProcs, "user processes")
	flag.IntVar(&sc.KernelProcs, "kernelprocs", sc.KernelProcs, "kernel threads")
	flag.IntVar(&sc.Devices, "devices", sc.Devices, "dpm_list length")
	flag.IntVar(&sc.Ticks, "ticks", sc.Ticks, "scheduler ticks before the power event")
	flag.StringVar(&sc.Workload, "workload", sc.Workload, "Table II workload to run first (empty = none)")
	flag.StringVar(&sc.PSU, "psu", sc.PSU, "psu: atx | server")
	flag.BoolVar(&sc.Energy, "energy", sc.Energy, "attach per-device joule meters (implied by -mode energy)")
	flag.Parse()

	if *checkTrace != "" || *checkProm != "" {
		check(*checkTrace, *checkProm)
		return
	}

	switch *platform {
	case "legacy":
		sc.Kind = lightpc.LegacyPC
	case "b":
		sc.Kind = lightpc.LightPCB
	case "full":
		sc.Kind = lightpc.LightPCFull
	default:
		usagef("unknown platform %q (want legacy, b, or full)", *platform)
	}
	if !slices.Contains([]string{"sng", "sweep", "energy"}, *mode) {
		usagef("unknown mode %q (want sng, sweep, or energy)", *mode)
	}
	seedList := parseSeeds(*seeds)
	sc.Holdup = sim.Duration(holdup.Nanoseconds()) * sim.Nanosecond
	sc.Energy = sc.Energy || *mode == "energy"
	if err := sc.Validate(); err != nil {
		usagef("%v", err)
	}

	switch *mode {
	case "sng", "energy":
		res, err := drive.SnG(sc)
		if err != nil {
			fatalf("%v", err)
		}
		switch {
		case *mode == "energy":
			fmt.Print(res.EnergyTable())
		case !*quiet:
			fmt.Print(res.PhaseTable())
			if sc.Energy {
				fmt.Print(res.EnergyTable())
			}
		}
		writeFile(*traceOut, res.ChromeTrace())
		writeFile(*promOut, res.Registry.PrometheusBytes())
		writeFile(*jsonOut, res.Registry.JSONBytes())
	case "sweep":
		sw, err := drive.Sweep(sc, seedList, *jobs)
		if err != nil {
			fatalf("%v", err)
		}
		if !*quiet {
			fmt.Print(sw.PhaseTables())
			if sc.Energy {
				fmt.Print(sw.EnergyTables())
			}
		}
		writeFile(*traceOut, sw.ChromeTrace())
		writeFile(*promOut, sw.Prometheus())
	}
}

// check validates previously written artifacts (the obs-smoke CI step).
func check(tracePath, promPath string) {
	if tracePath != "" {
		data, err := os.ReadFile(tracePath)
		if err != nil {
			fatalf("%v", err)
		}
		if err := obs.ValidateChromeTrace(data); err != nil {
			fatalf("%s: %v", tracePath, err)
		}
		fmt.Printf("%s: valid Chrome trace-event JSON\n", tracePath)
	}
	if promPath != "" {
		data, err := os.ReadFile(promPath)
		if err != nil {
			fatalf("%v", err)
		}
		if err := obs.ValidatePrometheus(data); err != nil {
			fatalf("%s: %v", promPath, err)
		}
		fmt.Printf("%s: valid Prometheus text exposition\n", promPath)
	}
}
