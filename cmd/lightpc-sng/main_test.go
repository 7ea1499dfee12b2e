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

// buildSnG compiles lightpc-sng into a temporary directory.
func buildSnG(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not available")
	}
	bin := filepath.Join(t.TempDir(), "lightpc-sng")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building lightpc-sng: %v\n%s", err, out)
	}
	return bin
}

// run executes bin with args and returns its stdout, stderr and exit
// status.
func run(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("%v: %v", args, err)
	}
	return o.String(), e.String(), code
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
		t.Errorf("%s changed:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestGoldenOutputs pins the command's stdout and exit status byte for
// byte at the paper system, the server PSU, and a starved window that
// tears the stop. Regenerate intentionally with
//
//	go test ./cmd/lightpc-sng -run Golden -update
func TestGoldenOutputs(t *testing.T) {
	bin := buildSnG(t)
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"default", nil, 0},
		{"psu-server", []string{"-psu", "server"}, 0},
		{"holdup-2ms", []string{"-holdup", "2ms"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, stderr, code := run(t, bin, tc.args...)
			if code != tc.code {
				t.Fatalf("%v: exit %d, want %d\n%s", tc.args, code, tc.code, stderr)
			}
			golden(t, tc.name+".golden", []byte(got))
		})
	}
}

// TestBadFlagsRejected pins that an unsupported -psu, a system size below
// 1 or a negative hold-up exits 2 with a diagnostic before simulating
// anything, instead of falling back to a default.
func TestBadFlagsRejected(t *testing.T) {
	bin := buildSnG(t)
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-psu", "xyz"}, `unknown PSU "xyz"`},
		{[]string{"-cores", "0"}, "Cores 0: want at least 1"},
		{[]string{"-user", "0"}, "UserProcs 0: want at least 1"},
		{[]string{"-holdup", "-1ms"}, "negative Holdup -1.000ms"},
	} {
		stdout, stderr, code := run(t, bin, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if stdout != "" {
			t.Errorf("%v printed output:\n%s", tc.args, stdout)
		}
		if !strings.Contains(stderr, tc.msg) {
			t.Errorf("%v: stderr = %q, want %q", tc.args, stderr, tc.msg)
		}
	}

	for _, p := range []string{"atx", "server"} {
		if out, err := exec.Command(bin, "-psu", p).CombinedOutput(); err != nil {
			t.Errorf("-psu %s: %v\n%s", p, err, out)
		}
	}
}
