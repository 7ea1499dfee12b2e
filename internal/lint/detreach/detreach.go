// Package detreach is the repository's determinism pass. The headline
// property of the reproduction is that runs are bit-for-bit deterministic:
// the same seed must produce the same golden tables, traces and crash
// verdicts on every machine, every run. Wall-clock reads, ambient
// randomness, host-environment reads and Go's randomized map iteration
// order each smuggle host state into that output, usually in a code path
// no test happens to cover.
//
// One pass enforces four rules, each a row of the policy table below:
//
//	rule      where it applies                            test files?
//	direct    internal/                                   no
//	strict    internal/obs, internal/energy,              yes
//	          internal/snapshot and their subpackages
//	maporder  every package, including cmd/ and examples/ no
//	edge      internal/                                   no
//
// What each rule flags:
//
//   - direct: a selector naming a wall-clock function of package time, any
//     math/rand or math/rand/v2 member, or anything from crypto/rand. All
//     temporal behavior must be sim.Time charged by the models and all
//     randomness an explicitly seeded sim.RNG.
//   - strict: the exporting layers promise byte-identical artifacts (Chrome
//     trace JSON, Prometheus text, report tables locked by goldens, fork
//     counters asserted at every -j level), so there no clock may be read
//     and no map may be ranged at all — in tests too, whose byte-equality
//     assertions are part of the contract. A strict layer is matched by
//     whole path elements: internal/observe is not internal/obs.
//   - maporder: a range over a map whose body formats output, issues
//     Write* calls, builds a report table, calls anything taking or
//     returning sim.Time/sim.Duration, appends non-key material to a
//     slice, or collects keys into a slice the function never sorts. The
//     fix is always to collect the keys, sort them, and range over the
//     sorted slice.
//   - edge: a call into a function carrying the Impure fact.
//
// Each offending site gets one diagnostic; in a strict layer the strict
// rule's message wins over the direct and maporder rules.
//
// Impurity seeds are the direct sources plus host-environment reads
// (os.Getenv and friends, process identity, file reads) and map-order
// escape: a range over a map whose body appends to a slice that the
// function never sorts afterwards. Propagation is a fixpoint over the
// package's static call graph, then the fact rides the vet facts file to
// importing packages, so a helper in internal/obs that shells out to
// os.Hostname poisons its callers in internal/experiments too.
//
// A function annotated //lightpc:pure is trusted: it is neither seeded nor
// propagated through, and edges inside it are not reported. It does not
// exempt a direct source or a map range inside it. Genuine exceptions to
// any rule carry a reasoned directive instead:
//
//	for k := range m { //lint:allow detreach order-independent fold
package detreach

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the detreach pass.
var Analyzer = &analysis.Analyzer{
	Name: "detreach",
	Doc:  "forbid wall-clock time, ambient randomness and order-sensitive map iteration, directly or through helpers; stricter still in the exporting layers",
	Run:  run,
}

// Impure is the fact carried by any function that transitively reaches a
// nondeterminism source. Reason names the root cause and the path's first
// hop, e.g. "calls time.Now (via sim.wallClock)".
type Impure struct {
	Reason string
}

// AFact marks Impure as a fact type.
func (*Impure) AFact() {}

type rule int

const (
	strict rule = iota
	direct
	mapOrder
	edge
)

// policy is the per-layer rule table: the packages each rule applies to
// and whether it also polices _test.go files.
var policy = [...]struct {
	scope func(pkgPath string) bool
	tests bool
}{
	strict:   {func(p string) bool { return strictLayer(p) != "" }, true},
	direct:   {analysis.InternalPackage, false},
	mapOrder: {func(string) bool { return true }, false},
	edge:     {analysis.InternalPackage, false},
}

// applies reports whether rule r polices a file of the package.
func applies(r rule, pkgPath string, isTest bool) bool {
	return policy[r].scope(pkgPath) && (policy[r].tests || !isTest)
}

// strictLayers are the packages whose bytes are exported.
var strictLayers = []string{"internal/obs", "internal/energy", "internal/snapshot"}

// strictLayer names the strict layer the import path belongs to, or "".
// The label appears verbatim in diagnostics.
func strictLayer(path string) string {
	for _, layer := range strictLayers {
		if analysis.InTree(path, layer) {
			return layer
		}
	}
	return ""
}

// temporal are the time package functions that read (true) or wait on
// (false) the wall clock. Constants (time.Millisecond), types and
// time.Duration arithmetic stay pure; simtime polices those.
var temporal = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": false, "After": false, "AfterFunc": false, "Tick": false,
	"NewTicker": false, "NewTimer": false,
}

// envReads are the os functions that sample the host environment.
var envReads = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
	"Hostname": true, "Getpid": true, "Getppid": true, "Getuid": true, "Getgid": true,
	"Getwd": true, "UserHomeDir": true, "UserCacheDir": true, "UserConfigDir": true,
	"TempDir": true, "ReadFile": true, "ReadDir": true, "Open": true, "OpenFile": true,
	"Stat": true, "Lstat": true,
}

// fmtFormatters are the fmt functions that render values into output.
var fmtFormatters = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Printf": true, "Print": true, "Println": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Errorf": true, "Appendf": true, "Append": true, "Appendln": true,
}

// sorters are the sort/slices calls that establish a deterministic order.
var sorters = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true, "Stable": true,
	"Slice": true, "SliceStable": true, "Strings": true, "Ints": true, "Float64s": true,
}

// funcInfo accumulates what one declaration does.
type funcInfo struct {
	obj    *types.Func
	seed   string     // non-empty: directly impure, with reason
	edges  []callEdge // static calls out of this function
	impure string     // fixpoint result ("" = pure)
	pure   bool       // //lightpc:pure annotation: trusted, skip entirely
	isTest bool
}

type callEdge struct {
	callee *types.Func
	pos    token.Pos
}

func run(pass *analysis.Pass) (interface{}, error) {
	path := pass.Pkg.Path()
	layer := strictLayer(path)
	var infos []*funcInfo
	for _, f := range pass.Files {
		isTest := pass.IsTestFile(f.Pos())
		var on [len(policy)]bool
		for r := range on {
			on[r] = applies(rule(r), path, isTest)
		}
		for _, d := range f.Decls {
			fd, _ := d.(*ast.FuncDecl)
			var in *funcInfo
			if fd != nil {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && fd.Body != nil {
					in = &funcInfo{obj: obj, isTest: isTest, pure: analysis.HasAnnotation(fd, "pure")}
					infos = append(infos, in)
				}
			}
			// A closure's behavior is attributed to the function that
			// creates it, since it may run it.
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					checkSelector(pass, on, layer, n)
				case *ast.CallExpr:
					if in != nil && !in.pure {
						scanCall(pass, n, in)
					}
				case *ast.RangeStmt:
					checkRange(pass, on, layer, fd, in, n)
				}
				return true
			})
		}
	}

	// Fixpoint: a function is impure when seeded or when any static
	// callee is impure (locally computed or imported as a fact).
	byObj := make(map[*types.Func]*funcInfo, len(infos))
	for _, in := range infos {
		byObj[in.obj] = in
	}
	for changed := true; changed; {
		changed = false
		for _, in := range infos {
			if in.pure || in.impure != "" {
				continue
			}
			if in.seed != "" {
				in.impure = in.seed
				changed = true
				continue
			}
			for _, e := range in.edges {
				if reason := calleeImpurity(pass, byObj, e.callee); reason != "" {
					in.impure = "calls " + calleeLabel(e.callee) + ": " + reason
					changed = true
					break
				}
			}
		}
	}

	// Export facts so importing packages see through these helpers, and
	// report each edge into an impure function.
	for _, in := range infos {
		if in.impure != "" && !in.isTest {
			pass.ExportObjectFact(in.obj, &Impure{Reason: in.impure})
		}
		if in.pure || !applies(edge, path, in.isTest) {
			continue
		}
		for _, e := range in.edges {
			if reason := calleeImpurity(pass, byObj, e.callee); reason != "" {
				pass.Reportf(e.pos, "call to %s, which is transitively nondeterministic (%s); thread sim.Time and explicit RNGs, or annotate the callee //lightpc:pure with justification", calleeLabel(e.callee), reason)
			}
		}
	}
	return nil, nil
}

// pkgMember resolves a package-qualified selector (time.Now) to the
// imported package's path, or "" when sel is anything else.
func pkgMember(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pkgName.Imported().Path()
}

// checkSelector applies the strict and direct rules to one selector.
func checkSelector(pass *analysis.Pass, on [len(policy)]bool, layer string, sel *ast.SelectorExpr) {
	name := sel.Sel.Name
	readsClock, isTemporal := temporal[name]
	switch pkgMember(pass, sel) {
	case "time":
		switch {
		case on[strict] && readsClock:
			pass.Reportf(sel.Pos(), "time.%s in %s: exported trace/metric bytes must be a pure function of sim time, never the host clock", name, layer)
		case on[direct] && isTemporal:
			pass.Reportf(sel.Pos(), "time.%s in simulation code: wall-clock behavior breaks bit-for-bit determinism; charge simulated time (sim.Time) instead", name)
		}
	case "math/rand", "math/rand/v2":
		if on[direct] {
			pass.Reportf(sel.Pos(), "math/rand (%s.%s) in simulation code: ambient randomness breaks bit-for-bit determinism; draw from an explicitly seeded sim.RNG instead", sel.X, name)
		}
	case "crypto/rand":
		if on[direct] {
			pass.Reportf(sel.Pos(), "crypto/rand (%s.%s) in simulation code: entropy breaks bit-for-bit determinism; draw from an explicitly seeded sim.RNG instead", sel.X, name)
		}
	}
}

// scanCall classifies one call: a nondeterminism source seeds the
// function; a static call to a module function records an edge.
func scanCall(pass *analysis.Pass, call *ast.CallExpr, in *funcInfo) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		_, isTemporal := temporal[name]
		switch path := pkgMember(pass, sel); {
		case path == "time" && isTemporal:
			seed(in, "calls time."+name)
			return
		case path == "math/rand" || path == "math/rand/v2":
			seed(in, "uses ambient "+path+"."+name)
			return
		case path == "crypto/rand":
			seed(in, "uses crypto/rand."+name)
			return
		case path == "os" && envReads[name]:
			seed(in, "reads the host environment via os."+name)
			return
		}
	}
	// Static call edge to a package-level function or method.
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type().Underlying()) {
			return // dynamic: out of reach for facts
		}
	}
	in.edges = append(in.edges, callEdge{callee: fn, pos: call.Pos()})
}

func seed(in *funcInfo, reason string) {
	if in.seed == "" {
		in.seed = reason
	}
}

// checkRange applies the strict and maporder rules to one range statement
// and seeds the enclosing function when map order escapes it.
func checkRange(pass *analysis.Pass, on [len(policy)]bool, layer string, fd *ast.FuncDecl, in *funcInfo, rs *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if on[strict] {
		pass.Reportf(rs.Pos(), "map iteration in %s: range order is host-random and would leak into exported bytes; keep insertion order in a slice and sort a copy", layer)
	}
	if fd == nil {
		return
	}
	reason, appends := orderSensitive(pass, rs)
	unsorted := appends && !sortFollows(pass, fd, rs.End())
	if unsorted && in != nil && !in.pure {
		seed(in, "freezes map iteration order into a slice that is never sorted")
	}
	if !on[mapOrder] || on[strict] {
		return
	}
	switch {
	case reason != "":
		pass.Reportf(rs.Pos(), "range over map %s in host-random order; collect the keys, sort them, and range over the sorted slice (golden output and the simulated timeline must not depend on map order)", reason)
	case unsorted:
		pass.Reportf(rs.Pos(), "map keys collected into a slice that is never sorted; sort before use or the order is host-random")
	}
}

// orderSensitive reports the first order-sensitive thing a map range's
// body does ("" for none) and whether the body appends to a slice at all.
// Appending only the range variables is the collect-then-sort idiom, which
// is order-sensitive only if no sort follows.
func orderSensitive(pass *analysis.Pass, rs *ast.RangeStmt) (reason string, appends bool) {
	keyObj, valObj := rangeVar(pass, rs.Key), rangeVar(pass, rs.Value)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				appends = true
				for _, arg := range call.Args[1:] {
					obj := identObj(pass, arg)
					if reason == "" && (obj == nil || (obj != keyObj && obj != valObj)) {
						reason = "appends non-key material to a slice"
					}
				}
				return true
			}
		}
		if reason == "" {
			reason = callReason(pass, call)
		}
		return true
	})
	return reason, appends
}

// callReason names what an order-sensitive call inside a map range does,
// or "".
func callReason(pass *analysis.Pass, call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		if pkgMember(pass, sel) == "fmt" && fmtFormatters[name] {
			return "formats output"
		}
		if len(name) >= 5 && name[:5] == "Write" {
			return "issues writes"
		}
		if recv := receiverPkgPath(pass, sel); recv != "" &&
			(recv == "report" || len(recv) > 7 && recv[len(recv)-7:] == "/report") {
			return "builds a report table"
		}
	}
	if sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature); ok && temporalSignature(sig) {
		return "advances simulated time"
	}
	return ""
}

// rangeVar resolves a range key/value identifier to its object.
func rangeVar(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.Defs[id]
}

func identObj(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.Uses[id]
}

// receiverPkgPath reports the package path of a method call's receiver
// type, or "".
func receiverPkgPath(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return ""
	}
	t := selection.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path()
}

// temporalSignature reports whether any parameter or result is a
// sim.Time/sim.Duration — a call through which map order would reach the
// simulated timeline.
func temporalSignature(sig *types.Signature) bool {
	check := func(tup *types.Tuple) bool {
		for i := 0; i < tup.Len(); i++ {
			t := tup.At(i).Type()
			if s, ok := t.(*types.Slice); ok {
				t = s.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				continue
			}
			obj := named.Obj()
			if obj.Pkg() == nil {
				continue
			}
			if (obj.Name() == "Time" || obj.Name() == "Duration") && analysis.SimPackage(obj.Pkg().Path()) {
				return true
			}
		}
		return false
	}
	return check(sig.Params()) || check(sig.Results())
}

// sortFollows reports whether a sort.*/slices.Sort* call appears in the
// function after pos.
func sortFollows(pass *analysis.Pass, fd *ast.FuncDecl, pos token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if path := pkgMember(pass, sel); (path == "sort" || path == "slices") && sorters[sel.Sel.Name] {
			found = true
		}
		return true
	})
	return found
}

// calleeImpurity reports why callee is impure, or "".
func calleeImpurity(pass *analysis.Pass, byObj map[*types.Func]*funcInfo, callee *types.Func) string {
	if in, ok := byObj[callee]; ok {
		return in.impure
	}
	if callee.Pkg() == pass.Pkg {
		return "" // local but unseen (generated or interface method)
	}
	var fact Impure
	if pass.ImportObjectFact(callee, &fact) {
		return fact.Reason
	}
	return ""
}

func calleeLabel(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}
