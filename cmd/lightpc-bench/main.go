// Command lightpc-bench runs the paper's evaluation experiments and prints
// the tables/series each figure reports.
//
// Usage:
//
//	lightpc-bench                 # run everything at full fidelity
//	lightpc-bench -exp fig15      # one experiment
//	lightpc-bench -list           # list experiment ids
//	lightpc-bench -quick          # trimmed sweeps (CI smoke)
//	lightpc-bench -samples 200000 # more samples per workload run
//	lightpc-bench -j 8            # run grid cells on 8 workers
//	lightpc-bench -progress       # per-cell wall-clock progress on stderr
//	lightpc-bench -quick -cpuprofile cpu.out   # pprof the suite
//	lightpc-bench -quick -memprofile mem.out   # heap profile at exit
//
// The grid-shaped experiments decompose into independent cells executed
// across -j workers (internal/runner). The tables are byte-for-byte
// identical at any -j, including the fully serial -j 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
)

// progressReporter prints one line per finished cell with its wall-clock
// time. Workers call the hooks concurrently.
type progressReporter struct {
	mu     sync.Mutex
	starts map[string]time.Time
	done   int
}

func newProgressReporter() *progressReporter {
	return &progressReporter{starts: map[string]time.Time{}}
}

func (p *progressReporter) onStart(label string) {
	p.mu.Lock()
	p.starts[label] = time.Now()
	p.mu.Unlock()
}

func (p *progressReporter) onDone(label string) {
	p.mu.Lock()
	elapsed := time.Since(p.starts[label])
	delete(p.starts, label)
	p.done++
	n := p.done
	p.mu.Unlock()
	fmt.Fprintf(os.Stderr, "[%4d] %-40s %8.1fms\n",
		n, label, float64(elapsed.Microseconds())/1000)
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		quick    = flag.Bool("quick", false, "use trimmed sweeps")
		samples  = flag.Uint64("samples", 0, "memory references sampled per run (0 = default)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		format   = flag.String("format", "text", "output format: text | json")
		jobs     = flag.Int("j", 0, "worker count for grid cells (0 = GOMAXPROCS, 1 = serial)")
		progress = flag.Bool("progress", false, "report per-cell wall-clock progress on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "lightpc-bench: unknown format %q (want text or json)\n", *format)
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lightpc-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lightpc-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lightpc-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "lightpc-bench: %v\n", err)
			}
		}()
	}

	if *list {
		for _, n := range experiments.All() {
			fmt.Printf("%-10s %s\n", n.ID, n.Desc)
		}
		return
	}

	o := experiments.DefaultOptions()
	if *quick {
		o = experiments.QuickOptions()
	}
	if *samples > 0 {
		o.SampleOps = *samples
	}
	o.Seed = *seed
	o.Jobs = *jobs
	if *progress {
		rep := newProgressReporter()
		o.OnCellStart = rep.onStart
		o.OnCellDone = rep.onDone
		j := o.Jobs
		if j <= 0 {
			j = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(os.Stderr, "lightpc-bench: %d workers\n", j)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	emit := func(n experiments.Named, tables []*report.Table) {
		if *format == "json" {
			payload := struct {
				ID     string          `json:"id"`
				Desc   string          `json:"description"`
				Tables []*report.Table `json:"tables"`
			}{n.ID, n.Desc, tables}
			if err := enc.Encode(payload); err != nil {
				fmt.Fprintf(os.Stderr, "lightpc-bench: %v\n", err)
				os.Exit(1)
			}
			return
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
	}

	if *exp == "all" {
		start := time.Now()
		for _, out := range experiments.RunAll(o) {
			emit(out.Named, out.Tables)
		}
		if *progress {
			fmt.Fprintf(os.Stderr, "lightpc-bench: suite completed in %.1fs\n",
				time.Since(start).Seconds())
		}
		return
	}
	n, ok := experiments.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "lightpc-bench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	emit(n, n.Run(o))
}
