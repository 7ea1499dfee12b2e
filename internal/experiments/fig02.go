package experiments

import (
	"repro/internal/dram"
	"repro/internal/pmemdimm"
	"repro/internal/pram"
	"repro/internal/report"
	"repro/internal/sim"
)

// Fig02Result is the latency-variation analysis of Figure 2b: random-access
// read and write latencies on a conventional PMEM DIMM, bare-metal PRAM,
// and DRAM.
type Fig02Result struct {
	DIMMRead, DIMMWrite *sim.Samples
	PRAMRead, PRAMWrite *sim.Samples
	DRAMRead, DRAMWrite *sim.Samples
}

// Fig02LatencyVariation reproduces Figure 2b with n random accesses per
// device class.
func Fig02LatencyVariation(o Options) (Fig02Result, *report.Table) {
	n := 20000
	if o.Quick {
		n = 3000
	}
	res := Fig02Result{
		DIMMRead: sim.NewSamples(), DIMMWrite: sim.NewSamples(),
		PRAMRead: sim.NewSamples(), PRAMWrite: sim.NewSamples(),
		DRAMRead: sim.NewSamples(), DRAMWrite: sim.NewSamples(),
	}
	rng := sim.NewRNG(o.Seed)

	// Conventional PMEM DIMM: random accesses over a span exceeding its
	// internal caches expose the multi-buffer lookup variance.
	pd := pmemdimm.New(pmemdimm.DefaultConfig())
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(1 << 26))
		if i%4 == 0 {
			done := pd.Write(now, addr)
			res.DIMMWrite.Add(done.Sub(now))
			now = done
		} else {
			done := pd.Read(now, addr)
			res.DIMMRead.Add(done.Sub(now))
			now = done
		}
	}

	// Bare-metal PRAM: deterministic sensing; writes pay the full
	// programming (cooling) time at the device.
	dev := pram.NewDevice(pram.DefaultConfig())
	now = sim.Time(0)
	for i := 0; i < n; i++ {
		row := rng.Uint64n(1 << 20)
		if i%4 == 0 {
			_, complete := dev.Write(now, row)
			res.PRAMWrite.Add(complete.Sub(now))
			now = complete
		} else {
			done, _, _ := dev.Read(now, row)
			res.PRAMRead.Add(done.Sub(now))
			now = done
		}
	}

	// DRAM: banked row buffers give a bimodal but narrow distribution.
	dd := dram.New(dram.DefaultConfig())
	now = sim.Time(0)
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(1 << 26))
		if i%4 == 0 {
			done := dd.Write(now, addr)
			res.DRAMWrite.Add(done.Sub(now))
			now = done
		} else {
			done := dd.Read(now, addr)
			res.DRAMRead.Add(done.Sub(now))
			now = done
		}
	}

	t := report.New("Fig 2b: random-access latency variation",
		"device", "op", "mean", "p50", "p99", "max", "CoV")
	add := func(name, op string, h *sim.Samples) {
		t.Add(name, op, report.Dur(h.Mean()), report.Dur(h.Percentile(50)),
			report.Dur(h.Percentile(99)), report.Dur(h.Max()),
			report.F(h.CoefficientOfVariation(), 3))
	}
	add("PMEM-DIMM", "read", res.DIMMRead)
	add("PMEM-DIMM", "write", res.DIMMWrite)
	add("bare-PRAM", "read", res.PRAMRead)
	add("bare-PRAM", "write", res.PRAMWrite)
	add("DRAM", "read", res.DRAMRead)
	add("DRAM", "write", res.DRAMWrite)
	t.Note("paper: DIMM reads ~2.9x bare PRAM and non-deterministic; DIMM writes beat bare PRAM by 2.3-6.1x; bare PRAM reads ~ DRAM reads")
	return res, t
}

// DIMMReadPenalty reports the DIMM-level read mean over bare PRAM (paper:
// ~2.9×).
func (r Fig02Result) DIMMReadPenalty() float64 {
	return float64(r.DIMMRead.Mean()) / float64(r.PRAMRead.Mean())
}

// DIMMWriteGain reports bare-PRAM write mean over DIMM-level writes
// (paper: 2.3–6.1×).
func (r Fig02Result) DIMMWriteGain() float64 {
	return float64(r.PRAMWrite.Mean()) / float64(r.DIMMWrite.Mean())
}
