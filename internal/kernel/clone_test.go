package kernel

import (
	"fmt"
	"testing"

	"repro/internal/snapshot"
)

// TestCloneCompleteness pins every kernel struct's field list against
// Kernel.Clone and its helpers: a new mutable field fails here until the
// clone handles it. (Core, Process and Device are value-copied with their
// reference fields remapped afterwards; Bank.Clone deliberately drops the
// observer; Bootloader is rebuilt pointing at the cloned OCPMEM.)
func TestCloneCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, Kernel{},
		"cfg", "rng", "Procs", "Cores", "Devices", "DRAM", "OCPMEM",
		"queues", "Boot", "PersistFlag", "DumpedBytes", "RestoredBytes", "nextPID")
	snapshot.CheckCovered(t, Core{},
		"ID", "Online", "Idle", "Current", "RunQueue",
		"KTaskPtr", "KStackPtr", "MRegs", "DirtyLines")
	snapshot.CheckCovered(t, Process{},
		"PID", "Name", "Kernel", "State", "CoreID", "PC", "Counter", "Regs",
		"SigPending", "Nice", "VRuntime", "wq", "memBase", "bank")
	snapshot.CheckCovered(t, WaitQueue{}, "Name", "waiters")
	snapshot.CheckCovered(t, Device{},
		"Name", "Index", "PrepareCost", "SuspendCost", "NoIrqCost",
		"ResumeCost", "State", "Context", "Peripheral", "MMIO", "dcbAddr")
	snapshot.CheckCovered(t, Bank{}, "name", "persistent", "dir", "pages", "n", "hint", "observer")
	snapshot.CheckCovered(t, Bootloader{}, "ocpmem")
}

// TestKernelCloneIndependence boots a kernel, clones it, and checks the
// clone's aliases were remapped: banks, processes, run queues and wait
// queues all point into the clone, and writes on either side stay local.
func TestKernelCloneIndependence(t *testing.T) {
	k := New(Config{Cores: 2, UserProcs: 3, KernelProcs: 2, Devices: 2, Seed: 7})
	c := k.Clone()

	if c.OCPMEM == k.OCPMEM || c.DRAM == k.DRAM {
		t.Fatal("clone shares a memory bank with the source")
	}
	k.OCPMEM.Write(0x40, 0xdead)
	if c.OCPMEM.Read(0x40) == 0xdead {
		t.Fatal("source bank write visible in clone")
	}

	for i, p := range c.Procs {
		if p == k.Procs[i] {
			t.Fatalf("clone shares process %d with the source", i)
		}
	}
	for i := range c.Cores {
		if cur := c.Cores[i].Current; cur != nil {
			found := false
			for _, q := range c.Procs {
				if cur == q {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("clone core %d Current points outside the clone", i)
			}
		}
		for _, rq := range c.Cores[i].RunQueue {
			for _, sp := range k.Procs {
				if rq == sp {
					t.Fatalf("clone core %d run queue holds a source process", i)
				}
			}
		}
	}
}

// TestAllocShapeIndependentOfSize pins boot and Clone at a fixed number
// of allocations: PCBs, cores, devices, queues and names each come from
// one slab, so a paper-sized system costs as many objects as a small one.
func TestAllocShapeIndependentOfSize(t *testing.T) {
	small := DefaultConfig()
	small.UserProcs, small.KernelProcs, small.Devices = 24, 16, 64
	paper := DefaultConfig()
	if small.Cores != paper.Cores {
		t.Fatal("the two sizes must share a core count")
	}
	var boot, clone [2]float64
	for i, cfg := range []Config{small, paper} {
		bank := NewBank("ocpmem", true)
		boot[i] = testing.AllocsPerRun(20, func() { NewWithBank(cfg, bank) })
		k := NewWithBank(cfg, bank)
		clone[i] = testing.AllocsPerRun(20, func() { k.Clone() })
	}
	if boot[0] != boot[1] {
		t.Errorf("NewWithBank: %.0f allocs at %d+%d procs/%d devices, %.0f at %d+%d/%d",
			boot[0], small.UserProcs, small.KernelProcs, small.Devices,
			boot[1], paper.UserProcs, paper.KernelProcs, paper.Devices)
	}
	if clone[0] != clone[1] {
		t.Errorf("Clone: %.0f allocs at the small size, %.0f at the paper size", clone[0], clone[1])
	}
}

// TestBootNames pins the boot-time names to the fmt verbs they replace,
// across the widths' edges.
func TestBootNames(t *testing.T) {
	k := New(Config{Cores: 2, UserProcs: 101, KernelProcs: 12, Devices: 1001, Seed: 3})
	for i, p := range k.Procs {
		want := fmt.Sprintf("user%02d", i)
		if p.Kernel {
			want = fmt.Sprintf("kthread%02d", i-101)
		}
		if p.Name != want {
			t.Fatalf("process %d named %q, want %q", i, p.Name, want)
		}
	}
	for i, d := range k.Devices {
		if want := fmt.Sprintf("dev%03d", i); d.Name != want {
			t.Fatalf("device %d named %q, want %q", i, d.Name, want)
		}
	}
}
