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

// buildObs compiles lightpc-obs into a temporary directory.
func buildObs(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not available")
	}
	bin := filepath.Join(t.TempDir(), "lightpc-obs")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building lightpc-obs: %v\n%s", err, out)
	}
	return bin
}

// run executes bin with args in dir and returns its stdout, stderr and
// exit status.
func run(t *testing.T, bin, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
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
		t.Errorf("%s changed (%d bytes, golden %d)", name, len(got), len(want))
	}
}

// TestGoldenOutputs pins the command byte for byte: the stdout of every
// mode and platform, and the trace, Prometheus and JSON metrics files of
// a workload run. Artifacts are written into a scratch directory under
// relative names, so the "wrote" lines are stable. Regenerate
// intentionally with
//
//	go test ./cmd/lightpc-obs -run Golden -update
func TestGoldenOutputs(t *testing.T) {
	bin := buildObs(t)
	for _, tc := range []struct {
		name  string
		args  []string
		files []string
	}{
		{"redis", []string{"-workload", "Redis",
			"-trace", "redis.trace.json", "-metrics", "redis.prom", "-metrics-json", "redis.metrics.json"},
			[]string{"redis.trace.json", "redis.prom", "redis.metrics.json"}},
		{"energy", []string{"-mode", "energy", "-workload", "Redis"}, nil},
		{"sweep", []string{"-mode", "sweep", "-seeds", "1,2", "-j", "2"}, nil},
		{"legacy", []string{"-platform", "legacy", "-metrics", "legacy.prom"}, []string{"legacy.prom"}},
		{"b", []string{"-platform", "b", "-metrics", "b.prom"}, []string{"b.prom"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			stdout, stderr, code := run(t, bin, dir, tc.args...)
			if code != 0 {
				t.Fatalf("%v: exit %d\n%s", tc.args, code, stderr)
			}
			golden(t, tc.name+".golden", []byte(stdout))
			for _, f := range tc.files {
				got, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				golden(t, f, got)
			}
		})
	}
}

// TestBadFlagsRejected pins that every invalid flag value — an unknown
// platform, mode, PSU or workload, a malformed seed list, a system size
// below 1, a negative hold-up — exits 2 with a diagnostic before anything
// is built, instead of being normalised into a plausible run.
func TestBadFlagsRejected(t *testing.T) {
	bin := buildObs(t)
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-platform", "nosuch"}, `unknown platform "nosuch"`},
		{[]string{"-mode", "nosuch"}, `unknown mode "nosuch"`},
		{[]string{"-mode", "sweep", "-seeds", "x"}, `bad seed "x"`},
		{[]string{"-mode", "sweep", "-seeds", ","}, "no seeds"},
		{[]string{"-cores", "0"}, "Cores 0: want at least 1"},
		{[]string{"-devices", "-5"}, "Devices -5: want at least 1"},
		{[]string{"-ticks", "0"}, "Ticks 0: want at least 1"},
		{[]string{"-holdup", "-1ms"}, "negative Holdup -1.000ms"},
		{[]string{"-psu", "xyz"}, `unknown PSU "xyz"`},
		{[]string{"-workload", "nosuch"}, `unknown workload "nosuch"`},
	} {
		stdout, stderr, code := run(t, bin, "", tc.args...)
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
}

// TestSeedZeroIsASeed pins that seed 0 is simulated as given: a sweep
// over seeds 0 and 1 yields two distinct cells, not seed 1 twice.
func TestSeedZeroIsASeed(t *testing.T) {
	bin := buildObs(t)
	stdout, stderr, code := run(t, bin, t.TempDir(), "-mode", "sweep", "-seeds", "0,1")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	cells := strings.Split(stdout, "\n\n")
	if len(cells) != 2 {
		t.Fatalf("want 2 phase tables, got %d:\n%s", len(cells), stdout)
	}
	if !strings.Contains(cells[0], "seed 0 ==") || !strings.Contains(cells[1], "seed 1 ==") {
		t.Errorf("cells are not seeds 0 and 1:\n%s", stdout)
	}
	_, timeline0, _ := strings.Cut(cells[0], "\n")
	_, timeline1, _ := strings.Cut(cells[1], "\n")
	if timeline0 == timeline1 {
		t.Errorf("seed 0 and seed 1 produced the same timeline:\n%s", stdout)
	}
}
