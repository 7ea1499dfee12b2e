package kernel

// Clone returns a deep copy of the live system image. Every object in the
// kernel's pointer graph — processes, cores, devices, wait queues and
// banks — is duplicated, and the aliases among them (a Process
// appears in Procs, possibly a Core's Current or RunQueue, and possibly a
// WaitQueue's waiters; a bank is shared by the kernel and every PCB) are
// remapped so each alias in the clone points at the clone's object. Bank
// write observers are not carried over (Bank.Clone drops them): an observer
// belongs to whoever installed it on the source.
//
// PCBs, cores, devices and wait queues are each copied into one slab, and
// every run queue and waiter list into one more, so a clone costs the
// same number of allocations at any system size.
func (k *Kernel) Clone() *Kernel {
	out := &Kernel{
		cfg:           k.cfg,
		rng:           k.rng.Clone(),
		PersistFlag:   k.PersistFlag,
		DumpedBytes:   k.DumpedBytes,
		RestoredBytes: k.RestoredBytes,
		nextPID:       k.nextPID,
	}

	// Banks first: the kernel's two plus whatever a PCB points at (after a
	// cold boot a process bank can differ from both), identity-remapped so
	// shared banks stay shared in the clone. There are only ever a few, so
	// a linear search beats a map.
	type bankPair struct{ src, dst *Bank }
	banks := []bankPair{{nil, nil}}
	bankOf := func(b *Bank) *Bank {
		for _, e := range banks {
			if e.src == b {
				return e.dst
			}
		}
		c := b.Clone()
		banks = append(banks, bankPair{b, c})
		return c
	}
	out.DRAM = bankOf(k.DRAM)
	out.OCPMEM = bankOf(k.OCPMEM)
	out.Boot = &Bootloader{ocpmem: out.OCPMEM}

	// Processes: value-copy each PCB and remap its bank; wait-queue links
	// are rewired below once every queue exists.
	procs := make(map[*Process]*Process, len(k.Procs)+1)
	procs[nil] = nil
	pcbs := make([]Process, len(k.Procs))
	out.Procs = make([]*Process, len(k.Procs))
	for i, p := range k.Procs {
		c := &pcbs[i]
		*c = *p
		c.bank = bankOf(p.bank)
		out.Procs[i] = c
		procs[p] = c
	}

	queued := 0
	for _, q := range k.queues {
		queued += len(q.waiters)
	}
	for _, c := range k.Cores {
		queued += len(c.RunQueue)
	}
	slab := procSlab(make([]*Process, queued))

	queues := make([]WaitQueue, len(k.queues))
	out.queues = make([]*WaitQueue, len(k.queues))
	for i, q := range k.queues {
		nq := &queues[i]
		nq.Name = q.Name
		nq.waiters = slab.carve(len(q.waiters))
		for _, w := range q.waiters {
			nq.waiters = append(nq.waiters, procs[w])
		}
		out.queues[i] = nq
	}
	for i, p := range k.Procs {
		if p.wq == nil {
			continue
		}
		for j, q := range k.queues {
			if p.wq == q {
				out.Procs[i].wq = out.queues[j]
				break
			}
		}
	}

	cores := make([]Core, len(k.Cores))
	out.Cores = make([]*Core, len(k.Cores))
	for i, c := range k.Cores {
		nc := &cores[i]
		*nc = *c
		nc.Current = procs[c.Current]
		nc.RunQueue = slab.carve(len(c.RunQueue))
		for _, p := range c.RunQueue {
			nc.RunQueue = append(nc.RunQueue, procs[p])
		}
		out.Cores[i] = nc
	}

	devs := make([]Device, len(k.Devices))
	out.Devices = make([]*Device, len(k.Devices))
	for i, d := range k.Devices {
		devs[i] = *d
		out.Devices[i] = &devs[i]
	}
	return out
}
