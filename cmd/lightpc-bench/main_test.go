package main_test

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBench compiles lightpc-bench into a temporary directory.
func buildBench(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not available")
	}
	bin := filepath.Join(t.TempDir(), "lightpc-bench")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building lightpc-bench: %v\n%s", err, out)
	}
	return bin
}

// TestUnknownFormatRejected pins that an unsupported -format exits 2 with
// a diagnostic before running anything, instead of falling back to text.
func TestUnknownFormatRejected(t *testing.T) {
	bin := buildBench(t)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-exp", "tableI", "-format", "xml")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-format xml: err = %v, want exit status 2", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("-format xml printed output:\n%s", stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, `unknown format "xml"`) {
		t.Errorf("stderr = %q, want an unknown format diagnostic", msg)
	}

	for _, f := range []string{"text", "json"} {
		if out, err := exec.Command(bin, "-exp", "tableI", "-format", f).CombinedOutput(); err != nil {
			t.Errorf("-format %s: %v\n%s", f, err, out)
		}
	}
}
