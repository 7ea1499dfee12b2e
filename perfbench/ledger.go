package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// ledgerPass is one traced pass over every workload's inputs plus its
// untraced twin.
type ledgerPass struct {
	l        ledger
	untraced time.Duration // wall time of the untraced twin
	traced   time.Duration // wall time of the traced pass
	outs     []any         // traced simulated outputs, one per workload
}

// runLedgerPass runs every workload once untraced and once traced, and
// checks that tracing changed no simulated output: every cpu.Result,
// every layer's Stats, every CutOutcome.
func runLedgerPass(seed uint64, chk *checker) (ledgerPass, error) {
	var p ledgerPass
	plain := make([]any, len(workloads))
	runtime.GC()
	start := time.Now()
	for i, w := range workloads {
		_, outs, err := w.round(seed, nil, chk)
		if err != nil {
			return p, err
		}
		plain[i] = outs
	}
	p.untraced = time.Since(start)

	runtime.GC()
	start = time.Now()
	for i, w := range workloads {
		_, outs, err := w.round(seed, &p.l, chk)
		if err != nil {
			return p, err
		}
		sameOutputs(chk, w.name+" traced vs untraced", plain[i], outs)
		p.outs = append(p.outs, outs)
	}
	p.traced = time.Since(start)
	return p, nil
}

// traceLedger is the --trace 1 run: traced passes while another still
// fits in budget (at least one), each reporting every per-layer metric;
// host times are the median over passes, simulated counts are identical on
// every pass.
//
// Each traced run covers every workload's inputs whatever workload it
// names, because every per-layer metric is reported on every traced run
// and no single workload reaches every layer.
func traceLedger(w benchWorkload, seed uint64, budget time.Duration, chk *checker, log io.Writer) (map[string]float64, error) {
	start := time.Now()
	var passes []map[string]float64
	var first []any
	for fits(start, len(passes), budget) {
		p, err := runLedgerPass(seed, chk)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = p.outs
		} else {
			sameOutputs(chk, "ledger", first, p.outs)
		}
		passes = append(passes, p.metrics())
	}
	fmt.Fprintf(log, "%s: traced layer ledger over every workload, %d passes\n", w.name, len(passes))
	out := map[string]float64{}
	for _, d := range perLayer {
		if _, ok := passes[0][d.name]; !ok {
			continue
		}
		var vs []float64
		for _, m := range passes {
			vs = append(vs, m[d.name])
		}
		out[d.name] = median(vs)
	}
	return out, nil
}

// metrics turns one pass's clocks and traced outputs into the per-layer
// metrics.
func (p ledgerPass) metrics() map[string]float64 {
	l := p.l
	ns, us, ms := time.Nanosecond, time.Microsecond, time.Millisecond
	backends := l.psm.ns + l.dram.ns + l.nmem.ns + l.tx.ns
	m := map[string]float64{
		"workload.gen_ns_per_ref":    l.gen.perCall(ns),
		"cpu.self_ns_per_ref":        float64(l.cpu.ns-l.gen.ns-backends) / float64(l.cpu.calls),
		"memctrl.psm_ns_per_access":  l.psm.perCall(ns),
		"memctrl.dram_ns_per_access": l.dram.perCall(ns),
		"memctrl.nmem_ns_per_access": l.nmem.perCall(ns),
		"pmemdimm.ns_per_access":     l.pmem.perCall(ns),
		"pmdk.tx_self_ns_per_access": float64(l.tx.ns-l.pmem.ns) / float64(l.tx.calls),
		"platform.new_us":            l.newPlatform.perCall(us),
		"crashpoint.build_ms":        l.build.perCall(ms),
		"crashpoint.offsets_ms":      l.offsets.perCall(ms),
		"snapshot.fork_us":           l.fork.perCall(us),
		"crashpoint.cut_us":          l.cut.perCall(us),
		"sng.stop_us":                l.stop.perCall(us),
		"sng.go_us":                  l.goRecover.perCall(us),
		"bench.trace_overhead_s":     (p.traced - p.untraced).Seconds(),
	}
	var exec []execOut
	for _, o := range p.outs {
		switch v := o.(type) {
		case []execOut:
			exec = append(exec, v...)
		case []cellOut:
			cutSimMetrics(m, v)
		}
	}
	execSimMetrics(m, exec)
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// execSimMetrics sums the simulated statistics of every exec case: the
// CPU over all of them, each device layer over the cases that have it.
func execSimMetrics(m map[string]float64, outs []execOut) {
	cores := uint64(cpu.DefaultConfig().Cores)
	var instr, coreCycles uint64
	var stall, coreTime sim.Duration
	var s simCounts
	for _, o := range outs {
		instr += o.res.Instructions
		coreCycles += cores * uint64(o.res.Cycles)
		stall += o.res.StallTime
		coreTime += sim.Duration(cores) * o.res.Elapsed

		c := o.counts
		s.PSM.Reads += c.PSM.Reads
		s.PSM.Writes += c.PSM.Writes
		s.PSM.RowBufferHits += c.PSM.RowBufferHits
		s.PSM.RowBufferServes += c.PSM.RowBufferServes
		s.PSM.Reconstructs += c.PSM.Reconstructs
		s.PSM.BlockedReads += c.PSM.BlockedReads
		s.PSM.MediaWrites += c.PSM.MediaWrites
		s.PSMReadP99 = max(s.PSMReadP99, c.PSMReadP99)
		s.NVDIMMRMW += c.NVDIMMRMW
		s.DRAMReads += c.DRAMReads
		s.DRAMWrites += c.DRAMWrites
		s.DRAMRowHits += c.DRAMRowHits
		s.DRAMRefreshes += c.DRAMRefreshes
		s.NMEMHits += c.NMEMHits
		s.NMEMMisses += c.NMEMMisses
		s.PMEM.Reads += c.PMEM.Reads
		s.PMEM.Writes += c.PMEM.Writes
		s.PMEM.SRAMHits += c.PMEM.SRAMHits
		s.PMEM.DRAMHits += c.PMEM.DRAMHits
		s.PMEM.Evictions += c.PMEM.Evictions
		s.PMEMReadP99 = max(s.PMEMReadP99, c.PMEMReadP99)
		s.TxCommits += c.TxCommits
		s.TxLineFlushes += c.TxLineFlushes
	}
	psmOps := s.PSM.Reads + s.PSM.Writes
	pmemOps := s.PMEM.Reads + s.PMEM.Writes
	m["cpu.sim_ipc"] = ratio(instr, coreCycles)
	m["cpu.sim_stall_frac"] = ratio(uint64(stall), uint64(coreTime))
	m["psm.row_buffer_hit_rate"] = ratio(s.PSM.RowBufferHits+s.PSM.RowBufferServes, psmOps)
	m["psm.reconstruct_share"] = ratio(s.PSM.Reconstructs, s.PSM.Reads)
	m["psm.blocked_read_share"] = ratio(s.PSM.BlockedReads, s.PSM.Reads)
	m["psm.media_writes"] = float64(s.PSM.MediaWrites)
	m["psm.read_lat_p99_ns"] = s.PSMReadP99.Nanoseconds()
	m["nvdimm.rmw"] = float64(s.NVDIMMRMW)
	m["dram.row_hit_rate"] = ratio(s.DRAMRowHits, s.DRAMReads+s.DRAMWrites)
	m["dram.refreshes"] = float64(s.DRAMRefreshes)
	m["memctrl.nmem_hit_rate"] = ratio(s.NMEMHits, s.NMEMHits+s.NMEMMisses)
	m["pmemdimm.sram_hit_rate"] = ratio(s.PMEM.SRAMHits, pmemOps)
	m["pmemdimm.dram_hit_rate"] = ratio(s.PMEM.DRAMHits, pmemOps)
	m["pmemdimm.evictions"] = float64(s.PMEM.Evictions)
	m["pmemdimm.read_lat_p99_ns"] = s.PMEMReadP99.Nanoseconds()
	m["pmdk.commits"] = float64(s.TxCommits)
	m["pmdk.line_flushes"] = float64(s.TxLineFlushes)
}

// cutSimMetrics summarizes the sweep's simulated outcomes.
func cutSimMetrics(m map[string]float64, cells []cellOut) {
	var cuts, commits, forkedB uint64
	var stopMax sim.Duration
	for _, c := range cells {
		for _, o := range c.cuts {
			cuts++
			if o.HasCommit {
				commits++
			}
		}
		forkedB += c.forkedB
		stopMax = max(stopMax, c.probe)
	}
	m["sng.stop_sim_ms_max"] = stopMax.Milliseconds()
	m["crashpoint.commit_rate"] = ratio(commits, cuts)
	m["snapshot.fork_bytes_per_cut"] = ratio(forkedB, cuts)
}
