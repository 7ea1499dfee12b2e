// Package persistorder enforces the store order behind LightPC's crash
// consistency, interprocedurally, in the five packages that write
// persistent state in protocol order: sng and checkpoint (the EP-cut and
// the checkpoint commit) and journal, pmdk and psm (the persistence
// stacks).
//
// The paper's crash-consistency argument (DESIGN.md "EP-cut soundness")
// rests on one store order: dirty cache lines and row buffers are flushed
// and memory is synchronized before the commit word is written, and
// nothing persistent moves after it. A reordering bug is invisible to tests
// unless a power failure lands in the reordered window — exactly the class
// of persistent-memory bug that survives testing. Four rules, each applied
// where the per-package policy table says:
//
//	rule           packages
//	journalFirst   journal, pmdk, psm
//	flushFirst     sng, checkpoint
//	afterCommit    sng, checkpoint, journal, pmdk, psm
//	spend          sng, checkpoint
//
// What each rule flags:
//
//   - journalFirst: in a function that both appends to a journal and
//     mutates persistent state, every mutation comes after the first
//     append. Logging after the damage is done lets recovery replay a hole.
//   - flushFirst: every commit-point call is dominated by a flush event — a
//     call whose callee name, or an identifier in its arguments, mentions
//     flush/sync (s.P.Flush(...), run.spend(flush), memSync()). Dominance
//     is structural: the flush must execute on every path that reaches the
//     commit, so a flush inside a loop body or a non-enclosing branch does
//     not count.
//   - afterCommit: once a function calls a commit point, no persistent
//     mutation and no journal append may follow. The commit seals the
//     EP-cut; anything after it escapes the cut's atomicity.
//   - spend: the deadline guard spend(...) returns false once the PSU
//     hold-up window has expired; discarding that result silently keeps
//     mutating state after the rails dropped. Its result must be consumed
//     (or explicitly discarded with `_ =` when provably timing-only).
//
// The rows differ because the packages commit differently: the journal
// stacks must log before they mutate and pay their barriers through their
// own device models, while Stop and the checkpoint library keep no journal
// but must flush before their commit word.
//
// Each function body is walked once, recording every event with the chain
// of branches that must be taken to reach it; a function literal is its
// own scope. Appends and commit points are declared in source:
//
//	//lightpc:journalappend  — this function IS the append primitive
//	//lightpc:commitpoint    — this function IS the commit primitive
//
// Both export facts, so a call across a package boundary (sng calling
// kernel.Bootloader.Commit) is still seen.
// Annotated primitives are exempt inside (their interior is the mechanics
// of the append/commit itself). As a rot guard, any method named Commit or
// TxCommit in the scoped packages must carry the commitpoint annotation.
//
// Persistent mutations are calls to the media sinks (by receiver), stores
// to the persistent fields of the store table, and calls to functions
// carrying the MutatesPersistent fact, which propagates through the call
// graph and across packages, so wrapping a sink in a helper does not hide
// it.
//
// Escape hatch, for code the rules misread:
//
//	b.Commit() //lint:allow persistorder commit word lives in an uncached bank
package persistorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the persistorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "persistorder",
	Doc:  "journal appends precede persistent mutations, a flush/sync dominates every EP-cut commit, nothing persistent moves after a commit point, and spend() deadlines are checked",
	Run:  run,
}

// MutatesPersistent marks a function that (transitively) writes the
// simulated persistent media or a persistent field.
type MutatesPersistent struct{}

// AFact marks MutatesPersistent as a fact type.
func (*MutatesPersistent) AFact() {}

// JournalAppend marks a //lightpc:journalappend primitive.
type JournalAppend struct{}

// AFact marks JournalAppend as a fact type.
func (*JournalAppend) AFact() {}

// CommitPoint marks a //lightpc:commitpoint primitive.
type CommitPoint struct{}

// AFact marks CommitPoint as a fact type.
func (*CommitPoint) AFact() {}

// rules is one row of the policy table. Every scoped package also gets
// afterCommit and the commit-point rot guard.
type rules struct{ journalFirst, flushFirst, spend bool }

// policy is the per-package rule table, keyed by the import path's last
// element so lint fixtures can model the real packages.
var policy = map[string]rules{
	"sng":        {flushFirst: true, spend: true},
	"checkpoint": {flushFirst: true, spend: true},
	"journal":    {journalFirst: true},
	"pmdk":       {journalFirst: true},
	"psm":        {journalFirst: true},
}

// member names a method or field by its owner's package (the import path's
// last element) and type.
type member struct{ pkg, typ, name string }

// sinks are the persistent-media write primitives.
var sinks = map[member]bool{
	{"kernel", "Bank", "Write"}:                 true,
	{"pmemdimm", "SectorDevice", "WriteSector"}: true,
	{"linetab", "Slab", "Put"}:                  true,
	{"psm", "DataStore", "WriteData"}:           true,
	{"psm", "PSM", "Write"}:                     true,
}

// stores are the persistent fields: the kernel state the EP-cut captures
// and the journal's checkpointed home image. Storing to one is a
// persistent mutation.
var stores = map[member]bool{
	{"kernel", "Kernel", "PersistFlag"}: true,
	{"kernel", "Core", "KTaskPtr"}:      true,
	{"kernel", "Core", "KStackPtr"}:     true,
	{"kernel", "Core", "DirtyLines"}:    true,
	{"kernel", "Core", "MRegs"}:         true,
	{"journal", "Store", "home"}:        true,
}

// memberOf keys name on the named type t (pointers dereferenced).
func memberOf(t types.Type, name string) (member, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return member{}, false
	}
	path := named.Obj().Pkg().Path()
	return member{path[strings.LastIndex(path, "/")+1:], named.Obj().Name(), name}, true
}

// isSink reports whether fn is a method in the sink table.
func isSink(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	m, ok := memberOf(sig.Recv().Type(), fn.Name())
	return ok && sinks[m]
}

type eventKind int

const (
	evCall   eventKind = iota // classified once the mutator fixpoint is done
	evAppend                  // call to a journal-append primitive
	evCommit                  // call to a commit point
	evMutate                  // persistent mutation
	evFlush                   // flush/sync barrier
	evSpend                   // spend(...) whose result is discarded
)

// guard identifies one branch of one control-flow statement. An event's
// guard chain is the set of branches that must be taken to reach it.
type guard struct {
	node   ast.Node
	branch int
}

type event struct {
	kind   eventKind
	pos    token.Pos
	desc   string      // rendered store target or spend call
	fn     *types.Func // the callee of a call event
	guards []guard
}

// label names the event in diagnostics.
func (e *event) label() string {
	if e.fn != nil {
		return calleeLabel(e.fn)
	}
	return e.desc
}

// funcInfo is one declared function of the package.
type funcInfo struct {
	decl             *ast.FuncDecl
	obj              *types.Func
	appendP, commitP bool
	mutates          bool          // reaches a sink or persistent store (fixpoint)
	calls            []*types.Func // static callees, for the fixpoint
}

// scope is one function body or function literal and its events in
// source order.
type scope struct {
	owner  *funcInfo
	events []event
}

type checker struct {
	pass   *analysis.Pass
	funcs  map[*types.Func]*funcInfo
	scopes []*scope
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{pass: pass, funcs: make(map[*types.Func]*funcInfo)}
	var infos []*funcInfo
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			in := &funcInfo{
				decl:    fd,
				obj:     obj,
				appendP: analysis.HasAnnotation(fd, "journalappend"),
				commitP: analysis.HasAnnotation(fd, "commitpoint"),
				mutates: isSink(obj),
			}
			if in.appendP {
				pass.ExportObjectFact(obj, &JournalAppend{})
			}
			if in.commitP {
				pass.ExportObjectFact(obj, &CommitPoint{})
			}
			c.funcs[obj] = in
			infos = append(infos, in)
		}
	}
	for _, in := range infos {
		if in.decl.Body != nil {
			c.walk(in, in.decl.Body)
		}
	}

	// Fixpoint: mutators propagate through local static calls.
	for changed := true; changed; {
		changed = false
		for _, in := range infos {
			if in.mutates {
				continue
			}
			for _, callee := range in.calls {
				if c.funcs[callee].mutates {
					in.mutates, changed = true, true
					break
				}
			}
		}
	}
	for _, in := range infos {
		if in.mutates {
			pass.ExportObjectFact(in.obj, &MutatesPersistent{})
		}
	}

	path := pass.Pkg.Path()
	r, scoped := policy[path[strings.LastIndex(path, "/")+1:]]
	if !scoped {
		return nil, nil
	}
	for _, in := range infos {
		// Rot guard: commit-shaped names must be annotated commit points.
		if name := in.decl.Name.Name; (name == "Commit" || name == "TxCommit") && !in.commitP && in.decl.Body != nil {
			pass.Reportf(in.decl.Pos(), "%s looks like a commit point but lacks //lightpc:commitpoint; annotate it so callers are checked against the EP-cut", name)
		}
	}
	for _, sc := range c.scopes {
		c.check(sc, r)
	}
	return nil, nil
}

// classify resolves a call now that every local fact is exported: the
// append and commit primitives first, then sinks and mutators.
func (c *checker) classify(fn *types.Func) eventKind {
	switch {
	case c.pass.ImportObjectFact(fn, &JournalAppend{}):
		return evAppend
	case c.pass.ImportObjectFact(fn, &CommitPoint{}):
		return evCommit
	case isSink(fn) || c.pass.ImportObjectFact(fn, &MutatesPersistent{}):
		return evMutate
	}
	return evCall
}

// check applies the package's rules to one scope's events.
func (c *checker) check(sc *scope, r rules) {
	var firstAppend, firstCommit *event
	for i := range sc.events {
		e := &sc.events[i]
		if e.kind == evCall {
			e.kind = c.classify(e.fn)
		}
		if e.kind == evAppend && firstAppend == nil {
			firstAppend = e
		}
		if e.kind == evCommit && firstCommit == nil {
			firstCommit = e
		}
	}
	for i := range sc.events {
		e := &sc.events[i]
		switch {
		case e.kind == evCommit && r.flushFirst && !flushed(sc.events, e):
			c.pass.Reportf(e.pos, "EP-cut ordering: %s is not dominated by a cache/row-buffer flush or memory sync; the commit word must be the last store after a full flush", e.label())
		case e.kind == evSpend && r.spend:
			c.pass.Reportf(e.pos, "result of %s discarded: spend reports whether the PSU hold-up deadline still holds, and ignoring it mutates state after the rails dropped", e.desc)
		}
		// journalFirst is exempt inside the append primitive and
		// afterCommit inside the commit primitive: their interiors are
		// the append/commit mechanics.
		if e.kind == evMutate && r.journalFirst && !sc.owner.appendP && firstAppend != nil && e.pos < firstAppend.pos {
			c.pass.Reportf(e.pos, "persistent mutation (%s) precedes the journal append in %s; log first, then mutate, or crash recovery replays a hole", e.label(), sc.owner.decl.Name.Name)
		}
		if firstCommit == nil || sc.owner.commitP || e.pos <= firstCommit.pos {
			continue
		}
		switch e.kind {
		case evMutate:
			c.pass.Reportf(e.pos, "persistent mutation (%s) after the commit point (%s); the EP-cut is sealed at commit, move this before it", e.label(), firstCommit.label())
		case evAppend:
			c.pass.Reportf(e.pos, "journal append (%s) after the commit point (%s); the transaction is already sealed", e.label(), firstCommit.label())
		}
	}
}

// flushed reports whether a flush event dominates commit: it comes first
// and every guard it sits under also guards the commit, so it executes on
// every path that reaches the commit.
func flushed(events []event, commit *event) bool {
	for _, e := range events {
		if e.kind == evFlush && e.pos < commit.pos && subset(e.guards, commit.guards) {
			return true
		}
	}
	return false
}

// subset reports whether every guard of a is also a guard of b.
func subset(a, b []guard) bool {
	for _, g := range a {
		if !slices.Contains(b, g) {
			return false
		}
	}
	return true
}

// walker records one scope's events.
type walker struct {
	*checker
	sc *scope
}

// walk records the events of one function body as a new scope owned by
// the declared function in (which also collects its mutations and calls
// for the fixpoint).
func (c *checker) walk(in *funcInfo, body *ast.BlockStmt) {
	sc := &scope{owner: in}
	c.scopes = append(c.scopes, sc)
	w := walker{c, sc}
	w.stmt(body, nil)
}

func (w walker) add(kind eventKind, pos token.Pos, desc string, fn *types.Func, guards []guard) {
	w.sc.events = append(w.sc.events, event{kind, pos, desc, fn, guards})
}

// stmt walks a statement attributing events to guard chains. Conditions
// and range expressions evaluate before their branches are entered, so
// they carry the parent's guards; bodies push a fresh guard. Every guard
// chain is a fresh slice, so events can share them.
func (w walker) stmt(s ast.Stmt, guards []guard) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range s.List {
			w.stmt(sub, guards)
		}
	case *ast.IfStmt:
		w.stmt(s.Init, guards)
		w.expr(s.Cond, guards)
		w.stmt(s.Body, push(guards, s, 0))
		w.stmt(s.Else, push(guards, s, 1))
	case *ast.ForStmt:
		w.stmt(s.Init, guards)
		w.expr(s.Cond, guards)
		inner := push(guards, s, 0)
		w.stmt(s.Post, inner)
		w.stmt(s.Body, inner)
	case *ast.RangeStmt:
		w.expr(s.X, guards)
		w.stmt(s.Body, push(guards, s, 0))
	case *ast.SwitchStmt:
		w.stmt(s.Init, guards)
		w.expr(s.Tag, guards)
		w.clauses(s, s.Body, guards)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, guards)
		w.stmt(s.Assign, guards)
		w.clauses(s, s.Body, guards)
	case *ast.SelectStmt:
		w.clauses(s, s.Body, guards)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, guards)
	case *ast.ExprStmt:
		// A spend(...) whose entire statement is the call discards the
		// deadline result.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if name := calleeName(call); name == "spend" || name == "Spend" {
				w.add(evSpend, call.Pos(), renderCallee(call), nil, guards)
			}
		}
		w.expr(s.X, guards)
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			w.store(lhs, guards)
			w.expr(lhs, guards)
		}
		for _, rhs := range s.Rhs {
			w.expr(rhs, guards)
		}
	case *ast.IncDecStmt:
		w.store(s.X, guards)
		w.expr(s.X, guards)
	case *ast.DeferStmt:
		w.expr(s.Call, guards)
	case *ast.GoStmt:
		w.expr(s.Call, guards)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, guards)
		}
	case *ast.SendStmt:
		w.expr(s.Chan, guards)
		w.expr(s.Value, guards)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, guards)
					}
				}
			}
		}
	}
}

// push extends a guard chain into a fresh slice.
func push(guards []guard, node ast.Node, branch int) []guard {
	return append(guards[:len(guards):len(guards)], guard{node, branch})
}

// clauses walks the case or comm clauses of a switch or select, each
// under its own guard.
func (w walker) clauses(node ast.Stmt, body *ast.BlockStmt, guards []guard) {
	for i, clause := range body.List {
		inner := push(guards, node, i)
		switch cc := clause.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.expr(e, inner)
			}
			for _, sub := range cc.Body {
				w.stmt(sub, inner)
			}
		case *ast.CommClause:
			w.stmt(cc.Comm, inner)
			for _, sub := range cc.Body {
				w.stmt(sub, inner)
			}
		}
	}
}

// expr records call events inside an expression. Function literals open an
// independent scope.
func (w walker) expr(e ast.Expr, guards []guard) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.walk(w.sc.owner, n.Body)
			return false
		case *ast.CallExpr:
			w.call(n, guards)
		}
		return true
	})
}

// call records a static call, to be classified once the mutator fixpoint
// is done, and a flush event when the call names a flush/sync barrier.
func (w walker) call(call *ast.CallExpr, guards []guard) {
	if fn := calleeFunc(w.pass.TypesInfo, call); fn != nil {
		in := w.sc.owner
		if _, local := w.funcs[fn]; local {
			in.calls = append(in.calls, fn)
		} else if isSink(fn) || w.pass.ImportObjectFact(fn, &MutatesPersistent{}) {
			in.mutates = true
		}
		w.add(evCall, call.Pos(), "", fn, guards)
	}
	if flushName(calleeName(call)) || argsMentionFlush(call) {
		w.add(evFlush, call.Pos(), "", nil, guards)
	}
}

// store records an assignment target that writes a persistent field,
// directly or through an index.
func (w walker) store(lhs ast.Expr, guards []guard) {
	target := lhs
	if idx, ok := target.(*ast.IndexExpr); ok {
		target = idx.X
	}
	sel, ok := target.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if m, ok := memberOf(w.pass.TypesInfo.TypeOf(sel.X), sel.Sel.Name); !ok || !stores[m] {
		return
	}
	w.sc.owner.mutates = true
	w.add(evMutate, lhs.Pos(), render(sel), nil, guards)
}

// calleeFunc resolves a call to the package-level function or method it
// statically invokes, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	return fn
}

// calleeName extracts the called function or method name.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// flushName reports whether a name denotes a flush/sync barrier.
func flushName(name string) bool {
	lower := strings.ToLower(name)
	return strings.Contains(lower, "flush") || strings.Contains(lower, "sync")
}

// argsMentionFlush reports whether any identifier in the call's arguments
// names a flush/sync quantity — the run.spend(flush), run.spend(sync)
// pattern where the charge for the barrier is spent on the deadline clock.
func argsMentionFlush(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && flushName(id.Name) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// calleeLabel renders pkg.Type.Method (or pkg.Func) for diagnostics.
func calleeLabel(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if m, ok := memberOf(sig.Recv().Type(), name); ok {
			name = m.typ + "." + name
		}
	}
	return fn.Pkg().Name() + "." + name
}

// render prints a selector chain like k.Boot.Commit for diagnostics.
func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := render(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
		return e.Sel.Name
	}
	return ""
}

func renderCallee(call *ast.CallExpr) string {
	if s := render(call.Fun); s != "" {
		return s + "()"
	}
	return "call"
}
