package main_test

// Smoke test: lightpc-lint builds, speaks the vettool protocol well enough
// for cmd/go, passes a clean package, fails a package that calls
// time.Now() inside internal/, and carries persistorder's facts from one
// package's .vetx file to its importer.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestVettoolSmoke(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not available")
	}

	tmp := t.TempDir()
	tool := filepath.Join(tmp, "lightpc-lint")
	build := exec.Command(goTool, "build", "-o", tool, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building lightpc-lint: %v\n%s", err, out)
	}

	mod := filepath.Join(tmp, "m")
	writeFile(t, filepath.Join(mod, "go.mod"), "module m\n\ngo 1.22\n")
	writeFile(t, filepath.Join(mod, "internal", "ok", "ok.go"), `package ok

func Add(a, b int) int { return a + b }
`)
	writeFile(t, filepath.Join(mod, "internal", "wallclock", "wallclock.go"), `package wallclock

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)
	// A second module, named repro because the vettool analyzes only
	// repro/... dependencies for facts: sng commits through kernel's
	// annotated Commit, then writes the bank through a kernel helper.
	repro := filepath.Join(tmp, "repro")
	writeFile(t, filepath.Join(repro, "go.mod"), "module repro\n\ngo 1.22\n")
	writeFile(t, filepath.Join(repro, "internal", "kernel", "kernel.go"), `package kernel

type Bank struct{ words [16]uint64 }

func (b *Bank) Write(addr, v uint64) { b.words[addr%16] = v }

type Bootloader struct{ M *Bank }

// Commit writes the commit word.
//
//lightpc:commitpoint
func (b *Bootloader) Commit() { b.M.Write(0, 1) }

func SetMEPC(b *Bootloader, pc uint64) { b.M.Write(8, pc) }
`)
	writeFile(t, filepath.Join(repro, "internal", "sng", "sng.go"), `package sng

import "repro/internal/kernel"

func memSync() {}

func Stop(b *kernel.Bootloader) {
	memSync()
	b.Commit()
	kernel.SetMEPC(b, 0x80002000)
}
`)

	vet := func(dir, pkg string) (string, error) {
		cmd := exec.Command(goTool, "vet", "-vettool="+tool, pkg)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	if out, err := vet(mod, "./internal/ok"); err != nil {
		t.Errorf("clean package should vet clean, got: %v\n%s", err, out)
	}
	out, err := vet(mod, "./internal/wallclock")
	if err == nil {
		t.Errorf("wall-clock package should fail vet, got success:\n%s", out)
	}
	if !strings.Contains(out, "detreach") || !strings.Contains(out, "time.Now") {
		t.Errorf("missing detreach diagnostic in output:\n%s", out)
	}

	// The CommitPoint fact on kernel's Commit and the MutatesPersistent
	// fact on SetMEPC reach sng only through kernel's .vetx file.
	out, err = vet(repro, "./internal/sng")
	if err == nil {
		t.Errorf("sng writing after its commit should fail vet, got success:\n%s", out)
	}
	if !strings.Contains(out, "sng.go:10:") || !strings.Contains(out, "[persistorder]") ||
		!strings.Contains(out, "persistent mutation (kernel.SetMEPC) after the commit point (kernel.Bootloader.Commit)") {
		t.Errorf("missing persistorder after-commit diagnostic in output:\n%s", out)
	}
}
