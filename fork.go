package lightpc

import (
	"fmt"

	"repro/internal/memctrl"
	"repro/internal/snapshot"
)

// Fork returns a deep copy of the platform: kernel (processes, cores,
// devices, wait queues, both memory banks), the full memory subsystem
// (PSM row buffers, wear leveler, PRAM cooling windows and RNG streams, or
// the DRAM controller's bank state), the lazily created data store, and —
// when metering is on — the energy meter set, rewired so the fork's
// devices charge the fork's meters. The copy and the source then evolve
// independently: running, power-failing, or recovering one is invisible to
// the other, and a forked run is byte-identical to rebuilding the platform
// and replaying the same inputs (forks copy state, they do not re-derive
// it).
//
// Observer attachments are not forked: an obs tracer on the SnG and any
// bank write observers stay with (or are dropped from) the source, because
// an observer instance records one timeline. Fork a quiet platform, then
// instrument the copy.
func (p *Platform) Fork() *Platform {
	out := &Platform{cfg: p.cfg}
	if p.dramC != nil {
		out.dramC = p.dramC.Clone()
		out.backend = out.dramC
	}
	if p.psm != nil {
		out.psm = p.psm.Clone()
		out.backend = &memctrl.PSMBackend{PSM: out.psm}
	}
	if p.data != nil {
		out.data = p.data.CloneFor(out.psm)
	}
	if p.energy != nil {
		out.energy = p.energy.Clone()
		for i := range p.coreM {
			out.coreM = append(out.coreM, out.energy.Lookup(fmt.Sprintf("core%d", i)))
		}
		out.cfg.CPU.Energy = out.coreM
		switch {
		case out.dramC != nil:
			out.dramC.SetEnergy(out.energy.Lookup("memctrl"), out.energy.Lookup("dram"))
		case out.psm != nil:
			out.psm.SetEnergy(out.energy.Lookup("psm"), out.energy.Lookup("pram"))
		}
	}
	out.kern = p.kern.Clone()
	s := *p.sng
	s.K = out.kern
	s.P = out.psm
	s.Obs = nil
	s.Energy = out.energy
	s.CoreEnergy = out.coreM
	out.sng = &s
	snapshot.Default().RecordFork(p.forkBytes())
	return out
}

// forkBytes approximates the mutable state one fork duplicates — the
// dominant arenas, counted without walking them: bank words (key+value
// pairs), PCBs, and the data store's line content. An observability
// estimate, not an exact allocator tally. The bank term stays at 16 B per
// word although banks now copy whole 16-word pages, so fork_bytes and
// every artifact that reports it keep their values.
func (p *Platform) forkBytes() uint64 {
	var n uint64
	n += 16 * uint64(p.kern.OCPMEM.Len())
	if p.kern.DRAM != nil {
		n += 16 * uint64(p.kern.DRAM.Len())
	}
	n += 128 * uint64(len(p.kern.Procs))
	if p.data != nil {
		n += 64 * uint64(p.data.Lines())
	}
	return n
}
