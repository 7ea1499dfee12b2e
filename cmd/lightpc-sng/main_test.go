package main_test

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

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

// TestUnknownPSURejected pins that an unsupported -psu exits 2 with a
// diagnostic before simulating anything, instead of falling back to ATX.
func TestUnknownPSURejected(t *testing.T) {
	bin := buildSnG(t)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-psu", "xyz")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-psu xyz: err = %v, want exit status 2", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("-psu xyz printed output:\n%s", stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, `unknown PSU "xyz"`) {
		t.Errorf("stderr = %q, want an unknown PSU diagnostic", msg)
	}

	for _, p := range []string{"atx", "server"} {
		if out, err := exec.Command(bin, "-psu", p).CombinedOutput(); err != nil {
			t.Errorf("-psu %s: %v\n%s", p, err, out)
		}
	}
}
