// Command perfbench is the repository's benchmark. It runs one workload of
// simulator work from a single process on one worker and prints every
// end-to-end metric (or, with --trace 1, every per-layer metric of the
// layer ledger), checking the simulated outputs as it goes. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload ocpmem-exec --seed 1 --seconds 20 --trace 0
//
// README.md in this directory says why each workload exists and which
// layer metric should move which end-to-end metric on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (pinned by TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the simulator sees, reported by every
// untraced run of every workload. An op is one simulated memory reference
// on the exec workloads and one power cut (Fork + CutAt) on
// powercut-sweep; a task is one Table II spec run on one freshly built
// memory system, or one cut.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"task_ms_p50", "ms", "lower"},
	{"task_ms_p95", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// perLayer is the traced run's layer ledger. Host times are in ns/us/ms/s;
// times the simulated hardware would take are in sim_ns/sim_ms.
var perLayer = []metricDef{
	{"workload.gen_ns_per_ref", "ns", "lower"},
	{"cpu.self_ns_per_ref", "ns", "lower"},
	{"memctrl.psm_ns_per_access", "ns", "lower"},
	{"memctrl.dram_ns_per_access", "ns", "lower"},
	{"memctrl.nmem_ns_per_access", "ns", "lower"},
	{"pmemdimm.ns_per_access", "ns", "lower"},
	{"pmdk.tx_self_ns_per_access", "ns", "lower"},
	{"platform.new_us", "us", "lower"},
	{"crashpoint.build_ms", "ms", "lower"},
	{"crashpoint.offsets_ms", "ms", "lower"},
	{"snapshot.fork_us", "us", "lower"},
	{"crashpoint.cut_us", "us", "lower"},
	{"sng.stop_us", "us", "lower"},
	{"sng.go_us", "us", "lower"},
	{"bench.trace_overhead_s", "s", "lower"},
	{"cpu.sim_ipc", "ratio", "higher"},
	{"cpu.sim_stall_frac", "ratio", "lower"},
	{"psm.row_buffer_hit_rate", "ratio", "higher"},
	{"psm.reconstruct_share", "ratio", "higher"},
	{"psm.blocked_read_share", "ratio", "lower"},
	{"psm.media_writes", "count", "lower"},
	{"psm.read_lat_p99_ns", "sim_ns", "lower"},
	{"nvdimm.rmw", "count", "lower"},
	{"dram.row_hit_rate", "ratio", "higher"},
	{"dram.refreshes", "count", "lower"},
	{"memctrl.nmem_hit_rate", "ratio", "higher"},
	{"pmemdimm.sram_hit_rate", "ratio", "higher"},
	{"pmemdimm.dram_hit_rate", "ratio", "higher"},
	{"pmemdimm.evictions", "count", "lower"},
	{"pmemdimm.read_lat_p99_ns", "sim_ns", "lower"},
	{"pmdk.commits", "count", "lower"},
	{"pmdk.line_flushes", "count", "lower"},
	{"sng.stop_sim_ms_max", "sim_ms", "lower"},
	{"crashpoint.commit_rate", "ratio", "higher"},
	{"snapshot.fork_bytes_per_cut", "B", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult attaches units to the measured values. Every defined metric
// must have been measured: a run that cannot report one is an error, not a
// result with a hole.
func newResult(defs []metricDef, values map[string]float64, chk *checker) (result, error) {
	r := result{
		Correct:   chk.failed == 0 && chk.attempted > 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return r, fmt.Errorf("measured %d metrics, defined %d", len(values), len(defs))
	}
	return r, nil
}

// measure runs the workload untraced, pass after pass, while another pass
// still fits in budget (and at least minRounds passes), and summarizes the
// end-to-end metrics: throughput and set-up as medians over passes, task
// latency over every task of every pass.
func measure(w benchWorkload, seed uint64, budget time.Duration, chk *checker, log io.Writer) (map[string]float64, error) {
	start := time.Now()
	var rounds []roundStats
	var first any
	for len(rounds) < minRounds || fits(start, len(rounds), budget) {
		rs, outs, err := w.round(seed, nil, chk)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = outs
		} else {
			sameOutputs(chk, w.name, first, outs)
		}
		rounds = append(rounds, rs)
	}

	var rates, setups, allocs, tasks []float64
	for i, r := range rounds {
		rates = append(rates, float64(r.ops)/r.timed.Seconds())
		setups = append(setups, r.setup.Seconds())
		allocs = append(allocs, float64(r.allocB)/1e6)
		tasks = append(tasks, r.taskMs...)
		fmt.Fprintf(log, "%s pass %d: %.6g ops/s, set-up %.4g s, %.6g MB allocated\n",
			w.name, i+1, rates[i], setups[i], allocs[i])
	}
	fmt.Fprintf(log, "%s: %d passes of %d ops; task latency over %d samples\n",
		w.name, len(rounds), rounds[0].ops, len(tasks))
	return map[string]float64{
		"ops_per_s":   median(rates),
		"task_ms_p50": percentile(tasks, 50),
		"task_ms_p95": percentile(tasks, 95),
		"setup_s":     median(setups),
		"alloc_mb":    median(allocs),
	}, nil
}

// fits reports whether one more pass, as long as the mean pass so far,
// still ends within budget of start.
func fits(start time.Time, passes int, budget time.Duration) bool {
	elapsed := time.Since(start)
	return passes == 0 || elapsed+elapsed/time.Duration(passes) <= budget
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ocpmem-exec, conventional-exec or powercut-sweep")
	seed := fs.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traced := fs.Int("trace", 0, "1 runs the traced layer ledger instead of the end-to-end measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	var chk checker
	var values map[string]float64
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
		values, err = traceLedger(w, *seed, budget, &chk, stdout)
	} else {
		values, err = measure(w, *seed, budget, &chk, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := newResult(defs, values, &chk)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printSummary(stdout, w.name, defs, res, &chk)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printSummary writes the human-readable lines that precede the JSON.
func printSummary(w io.Writer, name string, defs []metricDef, res result, chk *checker) {
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "%s %-30s %14.6g %s\n", name, d.name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%s %-30s %14.6g (%d failed of %d checks)\n", name, "error_rate",
		chk.errorRate(), chk.failed, chk.attempted)
	for _, n := range chk.notes {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", n)
	}
}
