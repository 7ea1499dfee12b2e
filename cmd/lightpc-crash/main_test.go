package main_test

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden outputs under testdata/")

// buildCrash compiles lightpc-crash into a temporary directory.
func buildCrash(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not available")
	}
	bin := filepath.Join(t.TempDir(), "lightpc-crash")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building lightpc-crash: %v\n%s", err, out)
	}
	return bin
}

// golden compares got with testdata/name, or rewrites it under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s changed (%d bytes, golden %d)", name, len(got), len(want))
	}
}

// TestGoldenOutputs pins the JSON reports and verdict lines byte for byte
// at the cut system: one full-window cut, the commit-instant bisection,
// and the crash-smoke sweep cell. Regenerate intentionally with
//
//	go test ./cmd/lightpc-crash -run Golden -update
func TestGoldenOutputs(t *testing.T) {
	bin := buildCrash(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"cut", []string{"-mode", "cut"}},
		{"bisect", []string{"-mode", "bisect"}},
		{"sweep", []string{"-mode", "sweep", "-workloads", "Redis", "-seeds", "1", "-cuts", "4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).Output()
			if err != nil {
				t.Fatalf("%v: %v", tc.args, err)
			}
			golden(t, tc.name+".golden", out)
		})
	}
}

// TestBadFlagsRejected pins that flag values the adversary would otherwise
// ignore — an unknown enum target, a negative cut offset, an unknown mode,
// a system size below 1, a negative cut count or hold-up, an unknown
// workload — exit 2 with a diagnostic before anything is built, instead of
// reporting OK (or exiting 1, the status of a violated invariant).
func TestBadFlagsRejected(t *testing.T) {
	bin := buildCrash(t)
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-mode", "enum", "-target", "nosuch"}, `unknown -target "nosuch"`},
		{[]string{"-mode", "enum", "-target", ","}, "no enum targets"},
		{[]string{"-mode", "cut", "-offset", "-5ms"}, "negative -offset -5ms"},
		{[]string{"-mode", "nosuch"}, `unknown -mode "nosuch"`},
		{[]string{"-mode", "sweep", "-seeds", "x"}, `bad seed "x"`},
		{[]string{"-cores", "0", "-user", "-3"}, "Cores 0: want at least 1"},
		{[]string{"-user", "-3"}, "UserProcs -3: want at least 1"},
		{[]string{"-kernelprocs", "0"}, "KernelProcs 0: want at least 1"},
		{[]string{"-devices", "-5"}, "Devices -5: want at least 1"},
		{[]string{"-ticks", "0"}, "Ticks 0: want at least 1"},
		{[]string{"-mode", "sweep", "-appops", "-1"}, "AppOps -1: want at least 1"},
		{[]string{"-mode", "sweep", "-cuts", "-2"}, "negative -cuts -2"},
		{[]string{"-holdup", "-1ms"}, "negative Holdup -1.000ms"},
		{[]string{"-workload", "nosuch"}, `unknown workload "nosuch"`},
		{[]string{"-mode", "sweep", "-workloads", "Redis,nosuch"}, `unknown workload "nosuch"`},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2", tc.args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v printed output:\n%s", tc.args, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.msg) {
			t.Errorf("%v: stderr = %q, want %q", tc.args, msg, tc.msg)
		}
	}

	for _, args := range [][]string{
		{"-mode", "enum", "-target", "journal", "-q"},
		{"-mode", "cut", "-offset", "0", "-q"},
	} {
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Errorf("%v: %v\n%s", args, err, out)
		}
	}
}
