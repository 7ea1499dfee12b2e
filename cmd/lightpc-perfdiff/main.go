// Command lightpc-perfdiff compares two BENCH_SEED.json snapshots (see
// cmd/lightpc-benchseed) benchstat-style: one row per benchmark with the
// old/new ns/op and allocs/op and their deltas, flagging any benchmark whose
// time or allocation count regressed by more than a threshold.
//
// The snapshots are single-iteration runs, so the comparison is a smoke
// gate, not a statistics engine: CI runs it with time deltas report-only,
// and -strict turns regressions into a non-zero exit for local pre-merge
// checks.
//
// Allocation counts, unlike times, are deterministic, so -strict-zero-alloc
// promotes one class of regression to a hard failure even without -strict:
// any benchmark the baseline pins at 0 allocs/op that now allocates. (The
// percentage machinery cannot express 0 -> N, so without this flag such a
// regression passes silently.) CI runs with -strict-zero-alloc.
//
// Usage:
//
//	lightpc-perfdiff -old BENCH_SEED.json -new /tmp/new.json
//	lightpc-perfdiff -old BENCH_SEED.json -new /tmp/new.json -threshold 10 -strict
//	lightpc-perfdiff -old BENCH_SEED.json -new /tmp/new.json -strict-zero-alloc
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchLine mirrors cmd/lightpc-benchseed's output schema. Snapshots from
// before the allocator columns existed decode with zero B/op and allocs/op;
// the comparison skips the alloc delta when both sides are zero.
type benchLine struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type seed struct {
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	SerialMs   float64     `json:"suite_serial_ms"`
	ParallelMs float64     `json:"suite_parallel_ms"`
	Benches    []benchLine `json:"benches"`
}

func load(path string) (seed, error) {
	var s seed
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// deltaPct reports the relative change new-vs-old in percent; ok is false
// when the old value is zero (no baseline to compare against).
func deltaPct(oldV, newV float64) (float64, bool) {
	if oldV == 0 {
		return 0, false
	}
	return (newV - oldV) / oldV * 100, true
}

func fmtDelta(oldV, newV float64) string {
	d, ok := deltaPct(oldV, newV)
	if !ok {
		if newV == 0 {
			return "~"
		}
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", d)
}

func main() {
	var (
		oldPath    = flag.String("old", "BENCH_SEED.json", "baseline snapshot")
		newPath    = flag.String("new", "", "candidate snapshot (required)")
		threshold  = flag.Float64("threshold", 10, "regression threshold in percent")
		strict     = flag.Bool("strict", false, "exit non-zero when a regression exceeds the threshold")
		strictZero = flag.Bool("strict-zero-alloc", false, "exit non-zero when a benchmark pinned at 0 allocs/op now allocates")
	)
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "lightpc-perfdiff: -new is required")
		os.Exit(2)
	}

	oldSeed, err := load(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightpc-perfdiff: %v\n", err)
		os.Exit(1)
	}
	newSeed, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightpc-perfdiff: %v\n", err)
		os.Exit(1)
	}

	oldBy := make(map[string]benchLine, len(oldSeed.Benches))
	for _, b := range oldSeed.Benches {
		oldBy[b.Name] = b
	}

	fmt.Printf("%-34s %14s %14s %8s %10s %10s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "time", "old allocs", "new allocs", "allocs")
	var regressions, zeroAllocBroken []string
	matched := make(map[string]bool, len(newSeed.Benches))
	for _, nb := range newSeed.Benches {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Printf("%-34s %14s %14.0f %8s\n", nb.Name, "-", nb.NsPerOp, "new")
			continue
		}
		matched[nb.Name] = true
		allocDelta := "~"
		if ob.AllocsPerOp != 0 || nb.AllocsPerOp != 0 {
			allocDelta = fmtDelta(ob.AllocsPerOp, nb.AllocsPerOp)
		}
		fmt.Printf("%-34s %14.0f %14.0f %8s %10.0f %10.0f %8s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, fmtDelta(ob.NsPerOp, nb.NsPerOp),
			ob.AllocsPerOp, nb.AllocsPerOp, allocDelta)
		if d, ok := deltaPct(ob.NsPerOp, nb.NsPerOp); ok && d > *threshold {
			regressions = append(regressions, fmt.Sprintf("%s: ns/op %+.1f%%", nb.Name, d))
		}
		if d, ok := deltaPct(ob.AllocsPerOp, nb.AllocsPerOp); ok && d > *threshold {
			regressions = append(regressions, fmt.Sprintf("%s: allocs/op %+.1f%%", nb.Name, d))
		}
		if ob.AllocsPerOp == 0 && nb.AllocsPerOp > 0 {
			zeroAllocBroken = append(zeroAllocBroken,
				fmt.Sprintf("%s: allocs/op 0 -> %.0f", nb.Name, nb.AllocsPerOp))
		}
	}
	for _, ob := range oldSeed.Benches {
		if !matched[ob.Name] {
			fmt.Printf("%-34s %14.0f %14s %8s\n", ob.Name, ob.NsPerOp, "-", "gone")
		}
	}

	if oldSeed.SerialMs > 0 && newSeed.SerialMs > 0 {
		fmt.Printf("\nsuite serial: %.0fms -> %.0fms (%s)   parallel (-j): %.0fms -> %.0fms (%s)\n",
			oldSeed.SerialMs, newSeed.SerialMs, fmtDelta(oldSeed.SerialMs, newSeed.SerialMs),
			oldSeed.ParallelMs, newSeed.ParallelMs, fmtDelta(oldSeed.ParallelMs, newSeed.ParallelMs))
	}
	if oldSeed.NumCPU != 0 && newSeed.NumCPU != 0 && oldSeed.NumCPU != newSeed.NumCPU {
		fmt.Printf("note: snapshots ran on different core counts (%d vs %d) — wall-clock deltas are not comparable\n",
			oldSeed.NumCPU, newSeed.NumCPU)
	}

	fail := false
	sort.Strings(zeroAllocBroken)
	if len(zeroAllocBroken) > 0 {
		fmt.Printf("\n%d pinned 0-alloc benchmark(s) now allocate:\n", len(zeroAllocBroken))
		for _, r := range zeroAllocBroken {
			fmt.Printf("  ZERO-ALLOC REGRESSION %s\n", r)
		}
		if *strictZero || *strict {
			fail = true
		} else {
			fmt.Println("(report-only: pass -strict-zero-alloc to fail on these)")
		}
	}

	sort.Strings(regressions)
	if len(regressions) > 0 {
		fmt.Printf("\n%d regression(s) beyond %.0f%%:\n", len(regressions), *threshold)
		for _, r := range regressions {
			fmt.Printf("  REGRESSION %s\n", r)
		}
		if *strict {
			fail = true
		} else {
			fmt.Println("(report-only: pass -strict to fail on regressions)")
		}
	} else {
		fmt.Printf("\nno regressions beyond %.0f%%\n", *threshold)
	}
	if fail {
		os.Exit(1)
	}
}
