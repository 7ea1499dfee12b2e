// Package nodeterminism forbids wall-clock time and ambient randomness in
// the simulation core.
//
// The reproduction's headline property is that runs are bit-for-bit
// deterministic (DESIGN.md "EP-cut soundness", determinism_test.go): the
// same seed must produce the same golden tables on every machine, every
// run. Any call to time.Now/time.Since or to the process-global math/rand
// source smuggles host state into the simulation and silently breaks that
// property — usually in a code path no test happens to cover. All temporal
// behavior must be expressed in sim.Time/sim.Duration charged by the
// models, and all randomness must flow through an explicitly seeded
// sim.RNG.
//
// The check applies to non-test code in internal/... packages. Genuine
// exceptions (none exist today) are marked in place:
//
//	t := time.Now() //lint:allow nodeterminism wall-clock for CLI progress only
package nodeterminism

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the nodeterminism pass.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid wall-clock time and global math/rand in internal/ simulation code; use sim.Time and sim.RNG",
	Run:  run,
}

// temporal lists the time package's nondeterminism entry points. Constants
// (time.Millisecond) and types are left to the simtime analyzer.
var temporal = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !analysis.InternalPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch pkgName.Imported().Path() {
			case "time":
				if temporal[sel.Sel.Name] {
					pass.Reportf(sel.Pos(), "time.%s in simulation code: wall-clock behavior breaks bit-for-bit determinism; charge simulated time (sim.Time) instead", sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(sel.Pos(), "math/rand (%s.%s) in simulation code: ambient randomness breaks bit-for-bit determinism; draw from an explicitly seeded sim.RNG instead", id.Name, sel.Sel.Name)
			case "crypto/rand":
				pass.Reportf(sel.Pos(), "crypto/rand (%s.%s) in simulation code: entropy breaks bit-for-bit determinism; draw from an explicitly seeded sim.RNG instead", id.Name, sel.Sel.Name)
			}
			return true
		})
	}
	return nil, nil
}
