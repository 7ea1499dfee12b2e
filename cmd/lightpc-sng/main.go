// Command lightpc-sng demonstrates Stop-and-Go on a live simulated system:
// it boots the mini-OS, runs it for a while, pulls the power, shows the
// Stop decomposition against the PSU hold-up window, recovers with Go, and
// verifies that every parked process resumes at the exact EP-cut.
//
// Usage:
//
//	lightpc-sng
//	lightpc-sng -cores 16 -user 100 -kernelprocs 60 -devices 400 -psu server
//	lightpc-sng -holdup 2ms        # force a torn stop -> cold boot
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/kernel"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/sng"
)

func main() {
	var (
		cores   = flag.Int("cores", 8, "core count")
		user    = flag.Int("user", 72, "user processes")
		kprocs  = flag.Int("kernelprocs", 48, "kernel threads")
		devices = flag.Int("devices", 250, "dpm_list length")
		psuName = flag.String("psu", "atx", "psu: atx | server")
		holdup  = flag.Duration("holdup", 0, "override hold-up window (0 = PSU spec)")
		seed    = flag.Uint64("seed", 1, "simulation seed")
	)
	flag.Parse()
	psu, err := power.LookupPSU(*psuName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightpc-sng: %v\n", err)
		os.Exit(2)
	}

	cfg := kernel.DefaultConfig()
	cfg.Cores = *cores
	cfg.UserProcs = *user
	cfg.KernelProcs = *kprocs
	cfg.Devices = *devices
	cfg.Seed = *seed
	k := kernel.New(cfg)
	k.Tick(20)

	window := sim.Duration(psu.SpecHoldUp)
	if *holdup > 0 {
		window = sim.Duration(holdup.Nanoseconds()) * sim.Nanosecond
	}

	fmt.Printf("system: %d cores, %d processes (%d sleeping), %d devices\n",
		len(k.Cores), len(k.Procs), len(k.Sleepers()), len(k.Devices))
	checksum := k.ProcsChecksum()

	s := sng.New(k)
	fmt.Printf("\n-- power failure (hold-up window: %v, %s) --\n", window, psu.Name)
	rep := s.Stop(0, sim.Time(window))
	fmt.Printf("Drive-to-Idle: %-10v (%d sleepers woken, %d tasks parked)\n",
		rep.ProcessStop, rep.WokenSleepers, rep.ParkedTasks)
	fmt.Printf("device stop:   %-10v (%d devices, %d peripherals)\n",
		rep.DeviceStop, rep.StoppedDevices, rep.Peripherals)
	fmt.Printf("offline:       %-10v (%d cache lines flushed)\n",
		rep.Offline, rep.FlushedLines)
	fmt.Printf("total:         %-10v — completed: %v\n", rep.Total, rep.Completed)

	k.PowerLoss()
	fmt.Println("\n-- rails down; volatile state wiped --")

	grep, err := s.Go(0)
	if err != nil {
		fmt.Printf("Go: %v\n", err)
		fmt.Println("cold boot required (no committed EP-cut)")
		os.Exit(1)
	}
	fmt.Printf("Go: boot %v, cores %v, devices %v (%d), processes %v (%d)\n",
		grep.BootCheck, grep.CoreBringUp, grep.DeviceResume, grep.ResumedDevices,
		grep.ProcessResume, grep.ResumedTasks)
	fmt.Printf("recovery total: %v\n", grep.Total)

	// Verify exact resumption.
	for _, p := range k.Procs {
		if p.State == kernel.TaskRunnable || p.State == kernel.TaskRunning {
			p.RestoreContext()
		}
	}
	if got := k.ProcsChecksum(); got == checksum {
		fmt.Println("EP-cut verified: every process resumed with identical state ✓")
	} else {
		fmt.Println("EP-cut MISMATCH: state diverged ✗")
		os.Exit(1)
	}
}
