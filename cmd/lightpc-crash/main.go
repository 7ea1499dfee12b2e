// Command lightpc-crash is the crash-point adversary: it drops the power
// rails at chosen (or searched, or fuzzed) instants of the SnG Stop
// sequence and checks every recovery invariant — committed cuts must
// restore the exact pre-cut system, uncommitted cuts must cold-boot to a
// byte-clean pre-cut state with no staged residue readable anywhere.
//
// Usage:
//
//	lightpc-crash -mode cut -offset 4ms            # one cut, one verdict
//	lightpc-crash -mode bisect                     # locate the commit instant
//	lightpc-crash -mode sweep -seeds 1,2 -j 4      # cut matrix over workloads
//	lightpc-crash -mode enum -target all           # word-granular enumeration
//
// All output is deterministic: same flags, same bytes (sweep included, at
// any -j). The exit status is 1 when any invariant is violated and 2 when a
// flag value is invalid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/crashpoint"
	"repro/internal/sim"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lightpc-crash: "+format+"\n", args...)
	os.Exit(1)
}

// usagef reports an invalid flag value and exits 2, the flag package's
// status for a usage error, so it cannot be mistaken for a violation.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lightpc-crash: "+format+"\n", args...)
	os.Exit(2)
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

func parseList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// emit prints v as indented JSON (the machine-readable report).
func emit(v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func main() {
	var (
		mode    = flag.String("mode", "cut", "cut | bisect | sweep | enum")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		seeds   = flag.String("seeds", "1", "comma-separated seeds (sweep mode)")
		wl      = flag.String("workload", "Redis", "Table II workload driving the application phase")
		wls     = flag.String("workloads", "Redis,SQLite", "comma-separated workloads (sweep mode)")
		cores   = flag.Int("cores", 4, "core count")
		user    = flag.Int("user", 24, "user processes")
		kprocs  = flag.Int("kernelprocs", 16, "kernel threads")
		devices = flag.Int("devices", 64, "dpm_list length")
		ticks   = flag.Int("ticks", 6, "scheduler ticks before the power event")
		appOps  = flag.Int("appops", 96, "application persistence operations staged before the cut")
		holdup  = flag.Duration("holdup", 0, "hold-up window (0 = ATX spec 16ms)")
		offset  = flag.Duration("offset", 0, "cut offset into the Stop sequence (cut mode; 0 = the full window)")
		cuts    = flag.Int("cuts", 8, "fuzzed cut offsets per cell on top of the stratified grid (sweep mode)")
		jobs    = flag.Int("j", 1, "sweep workers (0 = GOMAXPROCS); output is identical at any level")
		target  = flag.String("target", "all", "enum targets: pool,ckpt,hibernate,journal or all")
		quiet   = flag.Bool("q", false, "suppress the JSON report; only the verdict line")
	)
	flag.Parse()

	if !slices.Contains([]string{"cut", "bisect", "sweep", "enum"}, *mode) {
		usagef("unknown -mode %q (want cut, bisect, sweep or enum)", *mode)
	}
	if *offset < 0 {
		usagef("negative -offset %v (0 means the full window)", *offset)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"cores", *cores}, {"user", *user}, {"kernelprocs", *kprocs},
		{"devices", *devices}, {"ticks", *ticks}, {"appops", *appOps},
	} {
		if f.v < 1 {
			usagef("-%s %d: want at least 1", f.name, f.v)
		}
	}
	if *cuts < 0 {
		usagef("negative -cuts %d", *cuts)
	}
	if *holdup < 0 {
		usagef("negative -holdup %v (0 means the ATX spec 16ms)", *holdup)
	}
	targets := map[string]bool{}
	for _, tg := range parseList(*target) {
		if !slices.Contains([]string{"pool", "ckpt", "hibernate", "journal", "all"}, tg) {
			usagef("unknown -target %q (want pool, ckpt, hibernate, journal or all)", tg)
		}
		targets[tg] = true
	}
	if len(targets) == 0 {
		usagef("no enum targets in %q", *target)
	}

	sc := crashpoint.Scenario{
		Seed:        *seed,
		Cores:       *cores,
		UserProcs:   *user,
		KernelProcs: *kprocs,
		Devices:     *devices,
		Ticks:       *ticks,
		Workload:    *wl,
		AppOps:      *appOps,
		Holdup:      sim.Duration(holdup.Nanoseconds()) * sim.Nanosecond,
	}

	violations := 0
	switch *mode {
	case "cut":
		s, err := crashpoint.Build(sc)
		if err != nil {
			fatalf("%v", err)
		}
		off := sim.Duration(offset.Nanoseconds()) * sim.Nanosecond
		if off == 0 {
			off = s.Window
		}
		out := s.CutAt(off)
		violations = len(out.Violations)
		if !*quiet {
			emit(out)
		}
	case "bisect":
		rep, err := crashpoint.Bisect(sc)
		if err != nil {
			fatalf("%v", err)
		}
		violations = len(rep.Violations)
		if !*quiet {
			os.Stdout.Write(rep.JSON())
		}
		fmt.Printf("commit instant %s into a %s window (%d probes, vulnerable [%d, %d] ps)\n",
			sim.Duration(rep.CommitInstantPs), sim.Duration(rep.WindowPs),
			len(rep.Probes), rep.FirstVulnerablePs, rep.LastVulnerablePs)
	case "sweep":
		rep, err := crashpoint.Sweep(crashpoint.SweepConfig{
			Base:        sc,
			Workloads:   parseList(*wls),
			Seeds:       parseSeeds(*seeds),
			CutsPerCell: *cuts,
			Jobs:        *jobs,
		})
		if err != nil {
			fatalf("%v", err)
		}
		violations = rep.TotalViolations
		if !*quiet {
			os.Stdout.Write(rep.JSON())
		}
		fmt.Printf("%d cells, %d cuts, %d violations\n",
			len(rep.Cells), rep.TotalCuts, rep.TotalViolations)
	case "enum":
		all := targets["all"]
		var found []crashpoint.Violation
		run := func(name string, fn func() []crashpoint.Violation) {
			if !all && !targets[name] {
				return
			}
			v := fn()
			found = append(found, v...)
			fmt.Printf("enum %s: %d violations\n", name, len(v))
		}
		run("pool", func() []crashpoint.Violation { return crashpoint.CheckPool(*seed, 6, 5) })
		run("ckpt", func() []crashpoint.Violation { return crashpoint.CheckManager(*seed, 40) })
		run("hibernate", func() []crashpoint.Violation { return crashpoint.CheckHibernate(*seed, 5) })
		run("journal", func() []crashpoint.Violation { return crashpoint.CheckJournal(*seed, 30) })
		violations = len(found)
		if !*quiet && len(found) > 0 {
			emit(found)
		}
	}

	if violations > 0 {
		fmt.Printf("FAIL: %d invariant violations\n", violations)
		os.Exit(1)
	}
	fmt.Println("OK: all recovery invariants hold")
}
