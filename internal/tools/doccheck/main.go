// Command doccheck fails when an exported top-level identifier in the
// given package directories lacks a doc comment or has no caller outside
// tests. It is the API gate of the CI docs job:
//
//	go run ./internal/tools/doccheck $(go list -f '{{.Dir}}' ./internal/...)
//
// Documented: exported functions and methods (methods count when their
// receiver's base type is exported), and exported types, constants and
// variables, need a doc comment. A grouped const/var/type block is
// satisfied by a doc comment on the group or on the individual spec.
//
// Used: every exported top-level function, type, variable and constant
// needs a reference from a non-test .go file under the repository root,
// the directory of the go.mod enclosing the first package given. The scan
// is syntactic and package-qualified: pkg.Name in a file importing the
// package (an unnamed import binds the last element of its path, as every
// package here is named), or a bare Name in another declaration of the
// package. Every directory below the root counts, nested modules
// (perfbench) included; testdata and hidden directories do not.
//
// An exported method of an exported type counts as used when a non-test
// file selects .Name on anything (the scan has no types, so any receiver
// will do), or when Name is a method of an interface — one declared in a
// non-test file of the repository, or one of the standard library's on
// stdlibMethods, which values satisfy without naming the method. Struct
// fields are not checked.
//
// Packages whose name ends in "test" are test support and exempt, and
// allowlist names the exports kept for tests on purpose.
//
// _test.go files are never checked and never count as callers. Every
// offender is reported as "file:line: name: problem", and the exit status
// is nonzero if any were found.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// allowlist holds the exports only tests call that stay, keyed by package
// directory relative to the module root and name, with the reason each is
// kept.
var allowlist = map[string]string{
	"internal/minio.CheckOutOfCore":           "reference checker the out-of-core tests compare policies against",
	"internal/traversal.LiuProfile":           "reference solver the hill-valley kernel tests compare against",
	"internal/traversal.PeakBottomUp":         "reference peak the reversal-lemma tests compare against",
	"internal/traversal.TraversalWithin":      "reference solver the MinMemory tests compare against",
	"internal/ordering.MinimumDegreeWith":     "reference ordering the AMD tests and fuzz target compare against",
	"internal/minio.Policies":                 "the paper's policy list that tests and bench_test.go iterate",
	"internal/store.NewMemBacking":            "the in-memory fake the crash tests substitute for a file",
	"internal/schedule.OpenPagedStoreBacking": "opens a paged store over the crash tests' fake backing",
	"internal/schedule.ReadBinaryRows":        "decodes the row stream that -exp bench writes",
	"internal/tree.MustNew":                   "test helper shared by four packages' tests",
	"internal/store.MemBacking.JournalBytes":  "the crash tests cut the fake backing's image at every journal byte",
	"internal/store.MemBacking.SyncPoints":    "the crash tests reopen the fake backing at every sync point",
	"internal/minio.Result.Tau":               "turns a write schedule into the τ that CheckOutOfCore takes",
	"internal/tree.Tree.FVector":              "the file-size vector five packages' tests compare trees by",
	"internal/tree.Tree.NVector":              "the file-size vector five packages' tests compare trees by",
}

// stdlibMethods are the methods through which standard-library interfaces
// call a value: a type implementing one is used without any file naming
// the method.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"Unwrap": true, "Is": true, "As": true, "ServeHTTP": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadAt": true, "WriteAt": true, "ReadFrom": true, "WriteTo": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package dir> ...")
		os.Exit(2)
	}
	problems, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifiers are undocumented or unused\n", len(problems))
		os.Exit(1)
	}
}

// uses is what the non-test files of the repository reference: exported
// identifiers as "importpath.Name", and method names through any
// selector or interface declaration.
type uses struct {
	refs    map[string]bool
	methods map[string]bool
}

// run checks the package directories and returns every problem, sorted.
func run(dirs []string) ([]string, error) {
	root, module, err := moduleRoot(dirs[0])
	if err != nil {
		return nil, err
	}
	u, err := references(root, module)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, dir := range dirs {
		p, err := check(dir, root, module, u)
		if err != nil {
			return nil, err
		}
		problems = append(problems, p...)
	}
	sort.Strings(problems)
	return problems, nil
}

// moduleRoot returns the directory of the go.mod enclosing dir and the
// module path it declares.
func moduleRoot(dir string) (root, module string, err error) {
	d, err := filepath.Abs(dir)
	for ; err == nil; d = filepath.Dir(d) {
		if data, rerr := os.ReadFile(filepath.Join(d, "go.mod")); rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.Trim(strings.TrimSpace(m), `"`), nil
				}
			}
			return "", "", fmt.Errorf("%s declares no module", filepath.Join(d, "go.mod"))
		}
		if filepath.Dir(d) == d {
			err = fmt.Errorf("no go.mod encloses %s", dir)
		}
	}
	return "", "", err
}

// importPath names the package in dir, a directory under root.
func importPath(root, module, dir string) (string, error) {
	rel, err := filepath.Rel(root, dir)
	return path.Join(module, filepath.ToSlash(rel)), err
}

// references parses every non-test Go file under root and returns the
// "importpath.Name" references they make to exported identifiers and the
// method names they select or declare in interfaces.
func references(root, module string) (uses, error) {
	refs, methods := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, 0)
		if err != nil {
			return err
		}
		own, err := importPath(root, module, filepath.Dir(p))
		if err != nil {
			return err
		}
		imports := map[string]string{} // local name → import path
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if imp.Name != nil {
				imports[imp.Name.Name] = ip
			} else {
				imports[path.Base(ip)] = ip
			}
		}
		for _, decl := range f.Decls {
			owners := declNames(decl)
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							methods[name.Name] = true
						}
					}
				case *ast.SelectorExpr:
					methods[n.Sel.Name] = true
					// An X the parser resolved is a local shadowing the import.
					if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] != "" {
						refs[imports[x.Name]+"."+n.Sel.Name] = true
					} else {
						ast.Inspect(n.X, visit)
					}
					return false
				case *ast.Ident:
					if n.IsExported() && !owners[n.Name] {
						refs[own+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(decl, visit)
		}
		return nil
	})
	return uses{refs, methods}, err
}

// declNames returns the names a top-level declaration defines, so that a
// function's recursion, a type's methods and a constant's own spec do not
// count as uses of them.
func declNames(decl ast.Decl) map[string]bool {
	names := map[string]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		names[d.Name.Name] = true
		if base := receiverBase(d); base != nil {
			names[base.Name] = true
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				names[s.Name.Name] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					names[n.Name] = true
				}
			}
		}
	}
	return names
}

// check parses the non-test Go files of dir and returns "file:line: name:
// problem" for each exported identifier that lacks a doc comment or a use
// in u.
func check(dir, root, module string, u uses) ([]string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	ip, err := importPath(root, module, abs)
	if err != nil {
		return nil, err
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(ip, module), "/")
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	report := func(pos token.Pos, name, problem string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: %s: %s", p.Filename, p.Line, name, problem))
	}
	for pkgName, pkg := range pkgs {
		exempt := func(name string) bool {
			_, ok := allowlist[rel+"."+name]
			return ok || strings.HasSuffix(pkgName, "test")
		}
		used := func(pos token.Pos, name string) {
			if !u.refs[ip+"."+name] && !exempt(name) {
				report(pos, name, "no non-test file references it")
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !receiverExported(d) {
						continue
					}
					if d.Doc == nil {
						report(d.Pos(), funcName(d), "no doc comment")
					}
					if d.Recv == nil {
						used(d.Pos(), d.Name.Name)
					} else if m := d.Name.Name; !u.methods[m] && !stdlibMethods[m] && !exempt(funcName(d)) {
						report(d.Pos(), funcName(d), "no non-test file calls it")
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if !s.Name.IsExported() {
								continue
							}
							if d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), s.Name.Name, "no doc comment")
							}
							used(s.Pos(), s.Name.Name)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if !n.IsExported() {
									continue
								}
								if d.Doc == nil && s.Doc == nil && s.Comment == nil {
									report(n.Pos(), n.Name, "no doc comment")
								}
								used(n.Pos(), n.Name)
							}
						}
					}
				}
			}
		}
	}
	return problems, nil
}

// receiverBase returns the base type name of a method's receiver, or nil
// for a plain function.
func receiverBase(d *ast.FuncDecl) *ast.Ident {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return nil
	}
	t := d.Recv.List[0].Type
	for {
		switch u := t.(type) {
		case *ast.StarExpr:
			t = u.X
		case *ast.IndexExpr:
			t = u.X
		case *ast.IndexListExpr:
			t = u.X
		case *ast.Ident:
			return u
		default:
			return nil
		}
	}
}

// receiverExported reports whether a declaration is package-level API: a
// plain function, or a method whose receiver base type is exported (an
// exported method on an unexported type is unreachable API and exempt).
func receiverExported(d *ast.FuncDecl) bool {
	base := receiverBase(d)
	return base == nil || base.IsExported()
}

// funcName renders Func or Recv.Func for reporting.
func funcName(d *ast.FuncDecl) string {
	if base := receiverBase(d); base != nil {
		return base.Name + "." + d.Name.Name
	}
	return d.Name.Name
}
