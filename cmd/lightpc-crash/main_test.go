package main_test

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

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

// TestBadFlagsRejected pins that flag values the adversary would otherwise
// ignore — an unknown enum target, a negative cut offset, an unknown mode,
// a system size below 1, a negative cut count or hold-up — exit 2 with a diagnostic before anything is built, instead of reporting
// OK (or exiting 1, the status of a violated invariant).
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
		{[]string{"-cores", "0", "-user", "-3"}, "-cores 0: want at least 1"},
		{[]string{"-user", "-3"}, "-user -3: want at least 1"},
		{[]string{"-kernelprocs", "0"}, "-kernelprocs 0: want at least 1"},
		{[]string{"-devices", "-5"}, "-devices -5: want at least 1"},
		{[]string{"-ticks", "0"}, "-ticks 0: want at least 1"},
		{[]string{"-mode", "sweep", "-appops", "-1"}, "-appops -1: want at least 1"},
		{[]string{"-mode", "sweep", "-cuts", "-2"}, "negative -cuts -2"},
		{[]string{"-holdup", "-1ms"}, "negative -holdup -1ms"},
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
