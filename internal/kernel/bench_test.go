package kernel

import "testing"

// Sinks keep the compiler from discarding the measured calls.
var (
	benchWord uint64
	benchBank *Bank
)

// postCutBank builds a bank shaped like the OC-PMEM image right after a
// paper-sized power cut (~1,600 words): every PCB area saved as Park
// writes it, a DCB per device, and application words in the pmdk pool,
// checkpoint and hibernation regions.
func postCutBank() *Bank {
	k := New(DefaultConfig())
	for _, p := range k.Procs {
		p.SaveContext()
	}
	for _, d := range k.Devices {
		k.OCPMEM.Write(d.dcbAddr, d.Context)
	}
	for i := uint64(0); i < 96; i++ {
		k.OCPMEM.Write(RegionPool+8*i, i+1)
		k.OCPMEM.Write(RegionCkpt+8*i, i+2)
	}
	for i := uint64(0); i < 16; i++ {
		k.OCPMEM.Write(RegionHib+8*i, i+3)
	}
	return k.OCPMEM
}

// BenchmarkBankSaveContext times one Park's worth of fresh PCB-area
// writes: every process of a paper-sized kernel saves its context into
// words the bank has not held before.
func BenchmarkBankSaveContext(b *testing.B) {
	k := New(DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := k.Clone()
		b.StartTimer()
		for _, p := range c.Procs {
			p.SaveContext()
		}
	}
}

// BenchmarkBankChecksumRange times the three region digests the crash
// invariants take per cut (pool, checkpoint, hibernation) on a
// post-cut-sized bank.
func BenchmarkBankChecksumRange(b *testing.B) {
	bank := postCutBank()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchWord = bank.ChecksumRange(RegionPool, RegionBCB) ^
			bank.ChecksumRange(RegionCkpt, RegionDCB) ^
			bank.ChecksumRange(RegionHib, ^uint64(0))
	}
}

// BenchmarkBankClone times duplicating a post-cut-sized bank.
func BenchmarkBankClone(b *testing.B) {
	bank := postCutBank()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBank = bank.Clone()
	}
}

// BenchmarkBankRead times word loads from a post-cut-sized bank, hits
// and misses mixed.
func BenchmarkBankRead(b *testing.B) {
	bank := postCutBank()
	addrs := []uint64{0x80000, 0x80008, RegionPool + 8, RegionCkpt + 0x100, RegionHib + 0x1234, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchWord = bank.Read(addrs[i%len(addrs)])
	}
}
