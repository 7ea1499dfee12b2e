// Package zeroalloc enforces the repository's 0-alloc hot-path contract at
// vet time, interprocedurally.
//
// A function annotated
//
//	//lightpc:zeroalloc
//
// in its doc comment promises that a steady-state call allocates nothing.
// The analyzer walks the body and reports every allocation site:
//
//   - make/new and map/slice composite literals
//   - escaping composite literals (&T{...})
//   - closure creation (func literals, go statements)
//   - interface boxing: a non-pointer concrete value converted, assigned,
//     passed, or returned as an interface (this is how fmt/error wrapping
//     allocates)
//   - append (growth is amortized, not zero; sanctioned reuse sites carry a
//     reasoned //lint:allow zeroalloc)
//   - map writes/deletes and map iteration
//   - string concatenation and string<->[]byte conversions
//
// and every call that leaves the verified set: an annotated function may
// only call functions that themselves carry the zeroalloc fact — exported
// to dependents through the vet facts file, so the contract is transitive
// across packages — or a member of a small allocation-free stdlib
// allowlist (math, math/bits). Dynamic calls (func values, interface
// methods) cannot be verified and are reported; a deliberate dynamic hop
// (the CPU calling its memory backend interface) takes a reasoned allow.
//
// Guard blocks that end in panic are cold by construction (a panic tears
// the simulation down) and are skipped, so fmt.Sprintf in a bounds-check
// panic does not need an allow.
//
// The analyzer also owns the pinned hot set: the functions BENCH_SEED.json
// holds at 0 allocs/op (sim statistics, line-table ops, disabled
// instruments, device write paths) are registered here and must carry the
// annotation, so the bench pin and the static contract cannot drift apart.
package zeroalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the zeroalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "zeroalloc",
	Doc:  "functions annotated //lightpc:zeroalloc must not allocate and may only call zeroalloc-fact functions",
	Run:  run,
}

// ZeroAlloc is the fact exported for every annotated function: callers in
// importing packages may rely on it allocating nothing.
type ZeroAlloc struct{}

// AFact marks ZeroAlloc as a fact type.
func (*ZeroAlloc) AFact() {}

// stdlibAllowed are dependency-free stdlib packages whose functions never
// allocate (pure arithmetic); calls into them need no fact.
var stdlibAllowed = map[string]bool{
	"math":      true,
	"math/bits": true,
}

// required registers the pinned hot set per package (keyed by the import
// path's last element, values "Func" or "Type.Method"): every function the
// seed benchmarks hold at 0 allocs/op, plus the write paths those
// benchmarks exercise transitively. A registered function missing the
// annotation is reported, so deleting an annotation (or renaming a hot
// function) cannot silently drop the static contract.
var required = map[string][]string{
	"sim": {"Counter.Inc", "Histogram.Add", "bucketOf"},
	"cpu": {"interleaver.run"},
	"linetab": {
		"Counters.Inc", "Counters.Add", "Counters.Get", "Counters.Set",
		"Table.Get", "Table.Set", "Bits.Get", "Bits.Set",
		"Slab.Put", "Slab.Get",
		"Flight.Quiet", "Flight.End", "Flight.Busy", "Flight.Set", "Flight.Drain",
	},
	"obs": {
		"Counter.Inc", "Counter.Add", "Gauge.Set", "Gauge.Add", "Histogram.Observe",
		"Tracer.Span", "Tracer.Begin", "Tracer.End", "Tracer.Instant", "Tracer.Counter",
	},
	"energy":   {"Meter.Op", "Meter.OpN", "Meter.Sync", "Meter.SetState", "Meter.Rebase", "Set.Sync"},
	"pram":     {"Device.Read", "Device.Write"},
	"psm":      {"PSM.Read", "PSM.Write", "PSM.program"},
	"memctrl":  {"PSMBackend.Read", "PSMBackend.Write", "PMEMBackend.Read", "PMEMBackend.Write", "NMEM.access"},
	"nvdimm":   {"DIMM.ReadLine", "DIMM.WriteLine", "DIMM.LineBusy"},
	"dram":     {"DIMM.Read", "DIMM.Write"},
	"pmemdimm": {"DIMM.Read", "DIMM.Write"},
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Pass 1: collect annotated declarations and export their facts, so
	// mutually recursive annotated functions verify in any order.
	annotated := make(map[*types.Func]bool)
	var decls []*ast.FuncDecl
	declByName := make(map[string]*ast.FuncDecl)
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declByName[declName(fd)] = fd
			if !analysis.HasAnnotation(fd, "zeroalloc") {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			annotated[fn] = true
			pass.ExportObjectFact(fn, &ZeroAlloc{})
			if fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}

	checkRegistry(pass, declByName)

	for _, fd := range decls {
		checkBody(pass, fd, annotated)
	}
	return nil, nil
}

// declName renders a FuncDecl as "Name" or "Recv.Name" (pointer stripped).
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// checkRegistry enforces the pinned hot set: registered functions must
// exist and carry the annotation. Applies only to this module's packages,
// matched by the import path's last element, so lint fixtures named after
// device packages don't trip it.
func checkRegistry(pass *analysis.Pass, declByName map[string]*ast.FuncDecl) {
	path := pass.Pkg.Path()
	if !strings.HasPrefix(path, "repro/") {
		return
	}
	names := required[path[strings.LastIndex(path, "/")+1:]]
	for _, name := range names {
		fd, ok := declByName[name]
		if !ok {
			if len(pass.Files) > 0 {
				pass.Reportf(pass.Files[0].Name.Pos(),
					"zeroalloc hot-set registry names %s.%s, which no longer exists; update the registry in internal/lint/zeroalloc", path, name)
			}
			continue
		}
		if !analysis.HasAnnotation(fd, "zeroalloc") {
			pass.Reportf(fd.Pos(),
				"%s is in the pinned 0-alloc hot set (BENCH_SEED.json) and must carry //lightpc:zeroalloc", name)
		}
	}
}

// checker walks one annotated body.
type checker struct {
	pass      *analysis.Pass
	annotated map[*types.Func]bool
	fd        *ast.FuncDecl
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl, annotated map[*types.Func]bool) {
	c := &checker{pass: pass, annotated: annotated, fd: fd}
	cold := make(map[ast.Node]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if cold[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.IfStmt:
			// A guard whose body ends in panic is cold: the simulation is
			// tearing down, allocation there is irrelevant. Skip the body
			// (the condition and else branch stay checked).
			if endsInPanic(n.Body) {
				cold[n.Body] = true
			}
		case *ast.FuncLit:
			c.reportf(n.Pos(), "function literal allocates a closure")
			return false // its body is a separate, unverified function
		case *ast.GoStmt:
			c.reportf(n.Pos(), "go statement allocates a goroutine")
		case *ast.CallExpr:
			c.call(n)
		case *ast.CompositeLit:
			c.composite(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					c.reportf(n.Pos(), "escaping composite literal (&T{...}) allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(c.typeOf(n.X)) {
				c.reportf(n.Pos(), "string concatenation allocates")
			}
		case *ast.RangeStmt:
			if _, isMap := underlying(c.typeOf(n.X)).(*types.Map); isMap {
				c.reportf(n.Pos(), "map iteration on a zeroalloc path (hidden hashing plus host-random order)")
			}
		case *ast.AssignStmt:
			c.assign(n)
		case *ast.ReturnStmt:
			c.returns(n)
		}
		return true
	})
}

func (c *checker) reportf(pos token.Pos, format string, args ...interface{}) {
	c.pass.Reportf(pos, format, args...)
}

func (c *checker) typeOf(e ast.Expr) types.Type { return c.pass.TypesInfo.TypeOf(e) }

func underlying(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func isString(t types.Type) bool {
	b, ok := underlying(t).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// endsInPanic reports whether the block's last statement is a panic call
// (directly or via a terminating return after one — we only need the
// common `if bad { panic(...) }` shape).
func endsInPanic(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	es, ok := b.List[len(b.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// composite flags composite literals whose backing store lives on the
// heap: maps and slices. Value struct/array literals are stack material
// (escape via & is caught separately).
func (c *checker) composite(n *ast.CompositeLit) {
	switch underlying(c.typeOf(n)).(type) {
	case *types.Map:
		c.reportf(n.Pos(), "map literal allocates")
	case *types.Slice:
		c.reportf(n.Pos(), "slice literal allocates")
	}
}

// assign flags map writes and interface boxing on assignment.
func (c *checker) assign(n *ast.AssignStmt) {
	for _, lhs := range n.Lhs {
		if idx, ok := lhs.(*ast.IndexExpr); ok {
			if _, isMap := underlying(c.typeOf(idx.X)).(*types.Map); isMap {
				c.reportf(lhs.Pos(), "map write allocates (insert may grow the table)")
			}
		}
	}
	if len(n.Lhs) == len(n.Rhs) {
		for i, rhs := range n.Rhs {
			if n.Tok == token.DEFINE {
				continue // new variable takes the rhs type; no conversion
			}
			c.boxing(rhs, c.typeOf(n.Lhs[i]), "assignment")
		}
	}
}

// returns flags interface boxing at return sites.
func (c *checker) returns(n *ast.ReturnStmt) {
	fn, ok := c.pass.TypesInfo.Defs[c.fd.Name].(*types.Func)
	if !ok {
		return
	}
	results := fn.Type().(*types.Signature).Results()
	if results.Len() != len(n.Results) {
		return // naked return or comma-ok expansion: nothing to box
	}
	for i, r := range n.Results {
		c.boxing(r, results.At(i).Type(), "return")
	}
}

// boxing reports expr being converted to an interface target when that
// conversion must heap-allocate: the source is concrete and not
// pointer-shaped. Pointers (and maps/chans/funcs, which are pointer-shaped
// at runtime) box without allocating.
func (c *checker) boxing(expr ast.Expr, target types.Type, context string) {
	if target == nil || !types.IsInterface(underlying(target)) {
		return
	}
	tv := c.pass.TypesInfo.Types[expr]
	src := tv.Type
	if src == nil || tv.IsNil() {
		return
	}
	switch underlying(src).(type) {
	case *types.Interface, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return
	}
	c.reportf(expr.Pos(), "interface boxing at %s allocates (%s into %s)", context, src, target)
}

// call dispatches on what the call expression actually is: a conversion, a
// builtin, a static call, or a dynamic one.
func (c *checker) call(call *ast.CallExpr) {
	// Type conversion?
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		c.conversion(call, tv.Type)
		return
	}
	// Builtin?
	if id := calleeIdent(call.Fun); id != nil {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			c.builtin(call, b.Name())
			return
		}
	}
	fn := c.staticCallee(call)
	if fn == nil {
		c.reportf(call.Pos(), "dynamic call through a func value: allocation behavior unverifiable on a zeroalloc path")
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil {
		if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type().Underlying()) {
			c.reportf(call.Pos(), "dynamic call through interface method %s: allocation behavior unverifiable on a zeroalloc path", fn.Name())
			return
		}
		c.callArgs(call, sig)
	}
	c.callee(call, fn)
}

// callee verifies the called function carries the contract: annotated in
// this package, fact-carrying across packages, or stdlib-allowlisted.
func (c *checker) callee(call *ast.CallExpr, fn *types.Func) {
	pkg := fn.Pkg()
	if pkg == nil {
		return // error.Error and friends on builtins; unreachable in practice
	}
	if pkg == c.pass.Pkg {
		if !c.annotated[fn] {
			c.reportf(call.Pos(), "calls %s, which is not annotated //lightpc:zeroalloc", fn.Name())
		}
		return
	}
	if stdlibAllowed[pkg.Path()] {
		return
	}
	if c.pass.ImportObjectFact(fn, &ZeroAlloc{}) {
		return
	}
	c.reportf(call.Pos(), "calls %s.%s, which does not carry the zeroalloc fact", pkg.Name(), qualify(fn))
}

// callArgs flags interface boxing at argument positions.
func (c *checker) callArgs(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	n := params.Len()
	if n == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(n - 1).Type() // s... passes the slice through
			} else if s, ok := params.At(n - 1).Type().(*types.Slice); ok {
				// Each extra arg lands in a fresh backing array; catching
				// the boxing of its elements covers the fmt/error case.
				pt = s.Elem()
			}
		case i < n:
			pt = params.At(i).Type()
		}
		c.boxing(arg, pt, "call argument")
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= n {
		c.reportf(call.Pos(), "variadic call allocates the argument slice")
	}
}

func (c *checker) builtin(call *ast.CallExpr, name string) {
	switch name {
	case "make":
		c.reportf(call.Pos(), "make allocates")
	case "new":
		c.reportf(call.Pos(), "new allocates")
	case "append":
		c.reportf(call.Pos(), "append may grow its backing array")
	case "delete":
		c.reportf(call.Pos(), "map delete on a zeroalloc path")
	}
	for _, arg := range call.Args {
		if inner, ok := arg.(*ast.CallExpr); ok {
			c.call(inner)
		}
	}
}

// conversion flags converting types whose representation change must
// allocate, and boxing conversions into interfaces.
func (c *checker) conversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	src := c.typeOf(call.Args[0])
	st, tt := underlying(src), underlying(target)
	if isString(target) {
		switch st.(type) {
		case *types.Slice:
			c.reportf(call.Pos(), "[]byte-to-string conversion allocates")
		}
		return
	}
	if _, ok := tt.(*types.Slice); ok && isString(src) {
		c.reportf(call.Pos(), "string-to-slice conversion allocates")
		return
	}
	c.boxing(call.Args[0], target, "conversion")
}

// staticCallee resolves a call to the *types.Func it statically invokes,
// or nil for func values.
func (c *checker) staticCallee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = c.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = c.pass.TypesInfo.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func calleeIdent(fun ast.Expr) *ast.Ident {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return nil
	}
	return id
}

// qualify renders Recv.Name or Name for diagnostics.
func qualify(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}
