package analysis

import "strings"

// InTree reports whether the import path lies in the dir subtree, matching
// whole path elements: "repro/internal/obs/drive" is in "internal/obs",
// "repro/internal/observe" is not.
func InTree(path, dir string) bool {
	return path == dir ||
		strings.HasPrefix(path, dir+"/") ||
		strings.HasSuffix(path, "/"+dir) ||
		strings.Contains(path, "/"+dir+"/")
}

// InternalPackage reports whether the import path lies in an internal/
// subtree — the simulation core, where the determinism analyzers apply.
// cmd/ and examples/ front-ends stay out of scope: they may legitimately
// touch the host environment.
func InternalPackage(path string) bool {
	return InTree(path, "internal")
}

// SimPackage reports whether the import path is the simulation-substrate
// package itself (repro/internal/sim, or a fixture stub named sim), which
// owns the sim.Time/sim.Duration boundary.
func SimPackage(path string) bool {
	return path == "sim" || strings.HasSuffix(path, "/sim")
}
