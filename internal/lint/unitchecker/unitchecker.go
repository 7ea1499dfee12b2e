// Package unitchecker drives lint analyzers under "go vet -vettool=...".
//
// It is a stdlib-only reimplementation of the protocol spoken by
// golang.org/x/tools/go/analysis/unitchecker (which the offline build
// cannot vendor). cmd/go invokes the vet tool as follows:
//
//   - "tool -flags" must print a JSON description of the tool's flags;
//   - "tool -V=full" must print "<exe> version <...>" for the build cache;
//   - "tool <file>.cfg" must analyze the one package described by the JSON
//     config, print findings to stderr, write the (empty) facts file named
//     by VetxOutput, and exit 0 (clean) or 2 (findings).
//
// Dependency packages arrive with VetxOnly set: cmd/go only wants their
// facts. For packages that belong to a module the checker runs the full
// analyzer suite anyway — discarding diagnostics, keeping the exported
// facts — and writes the union of imported and exported facts to
// VetxOutput. Re-exporting imported facts is what makes the fact relation
// transitive: cmd/go hands each unit only its *direct* imports' .vetx
// files, so every unit forwards everything it knows. Standard-library
// packages (the only units without a module path) are not analyzed; their
// facts files carry whatever their own deps forwarded (nothing, in
// practice).
//
// After the full suite has run over a reporting unit, any //lint:allow
// directive that suppressed no finding is itself reported under the
// pseudo-analyzer "staleallow", so suppressions cannot rot in place.
//
// Type information is rebuilt from the compiler export data cmd/go lists in
// PackageFile, through go/importer's gc importer, so analyzers see the same
// types the build does.
package unitchecker

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// config mirrors the JSON vet configuration written by cmd/go.
type config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	ModulePath                string // "" for the standard library (and outside module mode)
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point for a vet tool built from analyzers. It never
// returns.
func Main(analyzers ...*analysis.Analyzer) {
	log.SetFlags(0)
	log.SetPrefix("lightpc-lint: ")

	var cfgFile string
	jsonOut := false
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full":
			printVersion()
			os.Exit(0)
		case arg == "-flags":
			printFlags()
			os.Exit(0)
		case arg == "-json":
			jsonOut = true
		case strings.HasPrefix(arg, "-c="):
			// Context lines around findings: accepted, not implemented.
		case strings.HasSuffix(arg, ".cfg"):
			cfgFile = arg
		case arg == "-help" || arg == "-h" || arg == "--help":
			usage(analyzers)
			os.Exit(0)
		default:
			log.Fatalf("unexpected argument %q (run via go vet -vettool=$(command -v lightpc-lint))", arg)
		}
	}
	if cfgFile == "" {
		usage(analyzers)
		os.Exit(1)
	}
	os.Exit(run(cfgFile, jsonOut, analyzers))
}

func usage(analyzers []*analysis.Analyzer) {
	fmt.Fprintln(os.Stderr, "lightpc-lint: statically enforces the LightPC reproduction's determinism and EP-cut invariants.")
	fmt.Fprintln(os.Stderr, "\nRun it through the go toolchain:")
	fmt.Fprintln(os.Stderr, "\n\tgo build -o bin/lightpc-lint ./cmd/lightpc-lint")
	fmt.Fprintln(os.Stderr, "\tgo vet -vettool=$(pwd)/bin/lightpc-lint ./...")
	fmt.Fprintln(os.Stderr, "\nAnalyzers:")
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(os.Stderr, "\t%-14s %s\n", a.Name, doc)
	}
}

// printVersion implements -V=full: the executable's content hash keys the
// go build cache, so edits to the linter invalidate cached vet results.
//
//lightpc:pure lint tooling: hashing the tool binary is the vet protocol, not simulation state
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", exe, string(h.Sum(nil)))
}

// printFlags implements -flags. The tool exposes no analyzer flags.
func printFlags() {
	fmt.Println("[]")
}

// run analyzes the one unit described by cfgFile.
//
//lightpc:pure lint tooling: reading the vet config and facts files is the protocol, not simulation state
func run(cfgFile string, jsonOut bool, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", cfgFile, err)
	}

	// Facts imported from every direct dependency's .vetx file. The store
	// accumulates this unit's exports on top; VetxOutput receives the
	// union, which keeps fact propagation transitive.
	store := analysis.NewFactStore()
	for _, vetxFile := range cfg.PackageVetx {
		if data, err := os.ReadFile(vetxFile); err == nil {
			store.Decode(data)
		}
	}

	// cmd/go requires the facts file regardless of outcome.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, store.Encode(), 0666); err != nil {
				log.Fatal(err)
			}
		}
	}
	if cfg.VetxOnly && cfg.ModulePath == "" {
		// The standard library carries no //lightpc: annotations: forward
		// the dependency facts without analyzing.
		writeVetx()
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				return 0
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}

	pkg, info, err := typeCheck(fset, &cfg, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		log.Fatalf("typechecking %s: %v", cfg.ImportPath, err)
	}

	type finding struct {
		analyzer string
		diag     analysis.Diagnostic
	}
	var findings []finding
	supp := analysis.CollectSuppressions(fset, files)
	for _, a := range analyzers {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Facts:     store,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			log.Fatalf("analyzer %s: %v", a.Name, err)
		}
		for _, d := range supp.Filter(fset, a.Name, diags) {
			findings = append(findings, finding{a.Name, d})
		}
	}
	writeVetx()
	if cfg.VetxOnly {
		// A facts-only invocation: the diagnostics belong to the unit
		// cmd/go will report on, not this one.
		return 0
	}
	for _, d := range supp.Stale() {
		findings = append(findings, finding{analysis.StaleAllowName, d})
	}
	sort.SliceStable(findings, func(i, j int) bool {
		return findings[i].diag.Pos < findings[j].diag.Pos
	})

	if len(findings) == 0 {
		return 0
	}
	if jsonOut {
		// cmd/go's JSON tree: {"pkgID": {"analyzer": [{posn, message}]}}.
		tree := map[string]map[string][]map[string]string{cfg.ID: {}}
		for _, f := range findings {
			tree[cfg.ID][f.analyzer] = append(tree[cfg.ID][f.analyzer], map[string]string{
				"posn":    fset.Position(f.diag.Pos).String(),
				"message": f.diag.Message,
			})
		}
		out, err := json.MarshalIndent(tree, "", "\t")
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(append(out, '\n'))
		return 0
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", fset.Position(f.diag.Pos), f.diag.Message, f.analyzer)
	}
	return 2
}

// typeCheck rebuilds the package's types from the export data cmd/go
// supplied for its dependencies.
//
//lightpc:pure lint tooling: export data comes off the host filesystem by design
func typeCheck(fset *token.FileSet, cfg *config, files []*ast.File) (*types.Package, *types.Info, error) {
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(importPath)
	})

	var typeErr error
	tc := &types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(cfg.Compiler, runtime.GOARCH),
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err == nil {
		err = typeErr
	}
	return pkg, info, err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
