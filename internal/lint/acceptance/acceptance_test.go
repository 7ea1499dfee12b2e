// Package acceptance proves the interprocedural analyzers guard the real
// hot paths, not just hand-written fixtures: each test copies a live
// package closure out of the repository into a scratch GOPATH tree, seeds
// the exact regression the analyzer exists to catch — an allocation in the
// core-interleave loop, a datastore write hoisted above its undo-log
// append, an EP-cut commit written before the flush, an unannotated commit
// point, an environment read feeding simulation code — and asserts the
// analyzer fires on the seeded lines (and nowhere else). The unmutated
// closures must analyze clean.
package acceptance_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/detreach"
	"repro/internal/lint/linttest"
	"repro/internal/lint/persistorder"
	"repro/internal/lint/zeroalloc"
)

// cpuClosure is the dependency closure of internal/cpu (go list -deps),
// the package holding the interleaver hot loop pinned at 0 allocs/op.
var cpuClosure = []string{
	"internal/sim",
	"internal/trace",
	"internal/obs",
	"internal/power",
	"internal/energy",
	"internal/cache",
	"internal/workload",
	"internal/cpu",
}

// pmdkClosure is the dependency closure of internal/pmdk, the undo-logged
// pool whose write ordering persistorder enforces.
var pmdkClosure = []string{
	"internal/sim",
	"internal/trace",
	"internal/obs",
	"internal/power",
	"internal/energy",
	"internal/cache",
	"internal/kernel",
	"internal/pmdk",
}

// sngClosure is the dependency closure of internal/sng, whose Stop draws
// the EP-cut: the commit word is written through kernel.Bootloader.Commit,
// a commit point declared in another package.
var sngClosure = []string{
	"internal/sim",
	"internal/snapshot",
	"internal/trace",
	"internal/obs",
	"internal/power",
	"internal/energy",
	"internal/kernel",
	"internal/ecc",
	"internal/linetab",
	"internal/pram",
	"internal/nvdimm",
	"internal/psm",
	"internal/sng",
}

// checkpointClosure is the dependency closure of internal/checkpoint, the
// A-CheckPC library whose Region.Commit is a commit point.
var checkpointClosure = []string{
	"internal/sim",
	"internal/snapshot",
	"internal/trace",
	"internal/obs",
	"internal/kernel",
	"internal/checkpoint",
}

// scratchTree copies the given packages from the repository root into a
// fresh GOPATH-style tree (skipping test files) and returns its root.
func scratchTree(t *testing.T, pkgs []string) string {
	t.Helper()
	root := t.TempDir()
	for _, pkg := range pkgs {
		srcDir := filepath.Join("..", "..", "..", filepath.FromSlash(pkg))
		dstDir := filepath.Join(root, "src", "repro", filepath.FromSlash(pkg))
		if err := os.MkdirAll(dstDir, 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(srcDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			b, err := os.ReadFile(filepath.Join(srcDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dstDir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return root
}

// mutate seeds a violation: old must occur exactly once in file (so the
// test fails loudly if the hot path is refactored) and is replaced by new,
// which carries the `// want` assertion.
func mutate(t *testing.T, file, old, new string) {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), old); n != 1 {
		t.Fatalf("anchor %q occurs %d times in %s, want exactly 1 — update the acceptance mutation", old, n, file)
	}
	if err := os.WriteFile(file, []byte(strings.Replace(string(b), old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestZeroallocCatchesHotLoopAllocation inserts a make into the core
// interleaver's per-reference loop — the regression that would turn the
// pinned 0 allocs/op benches red — and asserts zeroalloc reports it.
func TestZeroallocCatchesHotLoopAllocation(t *testing.T) {
	root := scratchTree(t, cpuClosure)
	mutate(t, filepath.Join(root, "src", "repro", "internal", "cpu", "cpu.go"),
		"\t\tref := c.batch[c.pos]\n",
		"\t\tref := c.batch[c.pos]\n"+
			"\t\tscratch := make([]int, 1) // want `make allocates`\n"+
			"\t\t_ = scratch\n")
	linttest.Run(t, root, zeroalloc.Analyzer, "repro/internal/cpu")
}

// TestPersistorderCatchesReorderedUndoLog hoists pmdk's datastore write
// above the undo-log append in Pool.Set — the torn-update bug class — and
// asserts persistorder reports the early mutation.
func TestPersistorderCatchesReorderedUndoLog(t *testing.T) {
	root := scratchTree(t, pmdkClosure)
	mutate(t, filepath.Join(root, "src", "repro", "internal", "pmdk", "pool.go"),
		"\taddr := p.wordAddr(oid, idx)\n"+
			"\tif p.bank.Read(poolTxAddr) == txActive {\n"+
			"\t\tp.logUndo(addr)\n"+
			"\t}\n"+
			"\tp.bank.Write(addr, val)\n",
		"\taddr := p.wordAddr(oid, idx)\n"+
			"\tp.bank.Write(addr, val) // want `precedes the journal append`\n"+
			"\tif p.bank.Read(poolTxAddr) == txActive {\n"+
			"\t\tp.logUndo(addr)\n"+
			"\t}\n")
	linttest.Run(t, root, persistorder.Analyzer, "repro/internal/pmdk")
}

// TestRealSnGIsClean runs persistorder over the live sng closure: Stop's
// flush, sync and commit order passes as written.
func TestRealSnGIsClean(t *testing.T) {
	linttest.Run(t, scratchTree(t, sngClosure), persistorder.Analyzer, "repro/internal/sng")
}

// TestReorderedSnGFires writes the EP-cut commit word right after the
// master's register dump, ahead of its cache flush and the memory sync.
// persistorder must report the undominated commit and every EP-cut store
// now after it: the field stores by the store table, the BCB writers by
// the MutatesPersistent fact carried over from kernel.
func TestReorderedSnGFires(t *testing.T) {
	root := scratchTree(t, sngClosure)
	sng := filepath.Join(root, "src", "repro", "internal", "sng", "sng.go")
	mutate(t, sng, "\t\t\t\t\t\tk.Boot.Commit()\n", "\t\t\t\t\t\t// commit reordered earlier\n")
	mutate(t, sng, "k.Boot.SaveCoreRegisters(master)\n",
		"k.Boot.SaveCoreRegisters(master)\n"+
			"\t\t\tk.Boot.Commit() // want `EP-cut ordering: kernel.Bootloader.Commit is not dominated by a cache/row-buffer flush`\n")
	mutate(t, sng, "master.DirtyLines = 0\n",
		"master.DirtyLines = 0 // want `persistent mutation \\(master.DirtyLines\\) after the commit point`\n")
	mutate(t, sng, "k.Boot.SaveWearMeta([4]uint64{a, b, c, d})\n",
		"k.Boot.SaveWearMeta([4]uint64{a, b, c, d}) // want `persistent mutation \\(kernel.Bootloader.SaveWearMeta\\) after the commit point`\n")
	mutate(t, sng, "k.Boot.SetMEPC(epCutPC)\n",
		"k.Boot.SetMEPC(epCutPC) // want `persistent mutation \\(kernel.Bootloader.SetMEPC\\) after the commit point`\n")
	mutate(t, sng, "k.PersistFlag = false\n",
		"k.PersistFlag = false // want `persistent mutation \\(k.PersistFlag\\) after the commit point`\n")
	linttest.Run(t, root, persistorder.Analyzer, "repro/internal/sng")
}

// TestPersistorderCatchesUnannotatedCommit drops //lightpc:commitpoint
// from checkpoint.Region.Commit: the rot guard must flag the method, since
// without the annotation no caller would be checked against it.
func TestPersistorderCatchesUnannotatedCommit(t *testing.T) {
	root := scratchTree(t, checkpointClosure)
	mutate(t, filepath.Join(root, "src", "repro", "internal", "checkpoint", "checkpoint.go"),
		"//\n//lightpc:commitpoint\nfunc (r *Region) Commit() int {\n",
		"func (r *Region) Commit() int { // want `Commit looks like a commit point but lacks //lightpc:commitpoint`\n")
	linttest.Run(t, root, persistorder.Analyzer, "repro/internal/checkpoint")
}

// TestDetreachCatchesEnvReadInSimCode adds a helper that samples the host
// environment and a caller inside internal/cpu; the Impure fact must
// propagate from the seed to the call edge.
func TestDetreachCatchesEnvReadInSimCode(t *testing.T) {
	root := scratchTree(t, cpuClosure)
	extra := `package cpu

import "os"

func nodeEnv() string {
	return os.Getenv("LIGHTPC_NODE")
}

func useNodeEnv() string {
	return nodeEnv() // want ` + "`transitively nondeterministic`" + `
}
`
	if err := os.WriteFile(filepath.Join(root, "src", "repro", "internal", "cpu", "zz_seeded.go"), []byte(extra), 0o644); err != nil {
		t.Fatal(err)
	}
	linttest.Run(t, root, detreach.Analyzer, "repro/internal/cpu")
}
