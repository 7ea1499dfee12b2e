package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/crashpoint"
	"repro/internal/workload"
)

// TestWrappersTransparent runs one small spec on every memory system with
// and without the timing wrappers: the cpu.Result and every layer's Stats
// must be identical, and the traced run must have charged its clocks.
func TestWrappersTransparent(t *testing.T) {
	spec, ok := workload.ByName("Redis")
	if !ok {
		t.Fatal("no Redis spec")
	}
	for _, sys := range []system{sysLightPCB, sysLightPC, sysDRAM, sysMemMode, sysTrans} {
		t.Run(sys.String(), func(t *testing.T) {
			c := execCase{spec: spec, sys: sys, seed: 42}
			plain := buildRig(c, 20_000, nil)
			want := plain.run(nil)

			var l ledger
			traced := buildRig(c, 20_000, &l)
			got := traced.run(&l)
			if got != want {
				t.Fatalf("traced cpu.Result differs:\n got %+v\nwant %+v", got, want)
			}
			if g, w := traced.counts(), plain.counts(); !reflect.DeepEqual(g, w) {
				t.Fatalf("traced layer stats differ:\n got %+v\nwant %+v", g, w)
			}
			if l.gen.calls != want.MemOps || l.cpu.calls != want.MemOps {
				t.Fatalf("generator clock saw %d refs, cpu clock %d, run made %d",
					l.gen.calls, l.cpu.calls, want.MemOps)
			}
			if traced.top.calls != want.ReadMisses+want.WriteMisses {
				t.Fatalf("backend clock saw %d accesses, run missed %d times",
					traced.top.calls, want.ReadMisses+want.WriteMisses)
			}
		})
	}
}

// TestCutTracingTransparent cuts one small cell with and without the
// ledger: every CutOutcome must be identical.
func TestCutTracingTransparent(t *testing.T) {
	cell := cutCell{label: "crash/test", sc: crashpoint.Scenario{Seed: 7, Workload: "Redis"}}
	var chk checker
	var l ledger
	plainBase, err := buildCell(cell, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	tracedBase, err := buildCell(cell, 4, &l)
	if err != nil {
		t.Fatal(err)
	}
	plain, traced := plainBase.cutAll(nil), tracedBase.cutAll(&l)
	if len(plain) != len(traced) || len(plain) == 0 {
		t.Fatalf("cut counts differ or empty: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if !reflect.DeepEqual(plain[i].outcome, traced[i].outcome) {
			t.Fatalf("cut %d differs:\n got %+v\nwant %+v", i, traced[i].outcome, plain[i].outcome)
		}
	}
	checkCuts(&chk, cell.label, traced)
	tracedBase.probe(&chk, &l)
	if chk.failed != 0 {
		t.Fatalf("checks failed: %v", chk.notes)
	}
	if l.fork.calls != uint64(len(traced)) || l.cut.calls != uint64(len(traced)) || l.stop.calls != 1 {
		t.Fatalf("clocks: fork %d cut %d stop %d calls", l.fork.calls, l.cut.calls, l.stop.calls)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {95, 9.55}, {100, 10}, {25, 3.25},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing is not NaN")
	}
}

// TestInjectedFailureRaisesErrorRate feeds each check a wrong output and
// expects it to count as a failed operation.
func TestInjectedFailureRaisesErrorRate(t *testing.T) {
	spec, _ := workload.ByName("mcf")
	r := buildRig(execCase{spec: spec, sys: sysLightPC, seed: 3}, 5_000, nil)
	res := r.run(nil)

	var chk checker
	checkExec(&chk, r, res)
	if chk.failed != 0 || chk.errorRate() != 0 {
		t.Fatalf("clean run failed a check: %v", chk.notes)
	}

	short := res
	short.MemOps--
	checkExec(&chk, r, short)

	slow := res
	slow.Elapsed++
	checkLadder(&chk, []execOut{
		{c: execCase{spec: spec, sys: sysLightPCB}, res: res},
		{c: execCase{spec: spec, sys: sysLightPC}, res: slow},
	})
	checkCuts(&chk, "x", []cutOut{{outcome: crashpoint.CutOutcome{
		Violations: []crashpoint.Violation{{}},
	}}})
	checkCuts(&chk, "x", []cutOut{{outcome: crashpoint.CutOutcome{
		Completed: true, StopTotalPs: int64(holdUp) + 1,
	}}})
	if chk.failed != 4 || chk.attempted != 6 {
		t.Fatalf("failed %d of %d checks, want 4 of 6 (%v)", chk.failed, chk.attempted, chk.notes)
	}
	if got := chk.errorRate(); got != 4.0/6.0 {
		t.Fatalf("error rate %v", got)
	}
	values := map[string]float64{}
	for _, d := range endToEnd {
		values[d.name] = 1
	}
	out, err := newResult(endToEnd, values, &chk)
	if err != nil || out.Correct || out.Failed != 4 {
		t.Fatalf("result %+v, err %v", out, err)
	}
}

// TestMetricsMatchBenchmarkJSON pins the metric and workload names the
// program reports to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, ours)
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.what, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			j := c.json[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.what, i, j, d)
			}
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "ocpmem-exec", "--trace", "2"},
		{"--workload", "ocpmem-exec", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestVetAndLint runs go vet and the repository's lightpc-lint analyzers
// over the benchmark's own code.
func TestVetAndLint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the lint tool")
	}
	lint := filepath.Join(t.TempDir(), "lightpc-lint")
	build := exec.Command("go", "build", "-o", lint, "./cmd/lightpc-lint")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build lint: %v\n%s", err, out)
	}
	for _, args := range [][]string{{"vet", "./..."}, {"vet", "-vettool=" + lint, "./..."}} {
		cmd := exec.Command("go", args...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
