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

	lightpc "repro"
	"repro/internal/crashpoint"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func main() {
	sc := crashpoint.PaperSystem()
	flag.IntVar(&sc.Cores, "cores", sc.Cores, "core count")
	flag.IntVar(&sc.UserProcs, "user", sc.UserProcs, "user processes")
	flag.IntVar(&sc.KernelProcs, "kernelprocs", sc.KernelProcs, "kernel threads")
	flag.IntVar(&sc.Devices, "devices", sc.Devices, "dpm_list length")
	flag.StringVar(&sc.PSU, "psu", sc.PSU, "psu: atx | server")
	holdup := flag.Duration("holdup", 0, "override hold-up window (0 = PSU spec)")
	flag.Uint64Var(&sc.Seed, "seed", sc.Seed, "simulation seed")
	flag.Parse()
	sc.Holdup = sim.Duration(holdup.Nanoseconds()) * sim.Nanosecond
	if err := sc.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "lightpc-sng: %v\n", err)
		os.Exit(2)
	}
	psu, window, _ := sc.Supply() // Validate resolved the PSU

	p := lightpc.New(sc.Config())
	k := p.Kernel()
	k.Tick(sc.Ticks)

	fmt.Printf("system: %d cores, %d processes (%d sleeping), %d devices\n",
		len(k.Cores), len(k.Procs), len(k.Sleepers()), len(k.Devices))
	checksum := k.ProcsChecksum()

	s := p.SnG()
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
	for _, proc := range k.Procs {
		if proc.State == kernel.TaskRunnable || proc.State == kernel.TaskRunning {
			proc.RestoreContext()
		}
	}
	if got := k.ProcsChecksum(); got == checksum {
		fmt.Println("EP-cut verified: every process resumed with identical state ✓")
	} else {
		fmt.Println("EP-cut MISMATCH: state diverged ✗")
		os.Exit(1)
	}
}
