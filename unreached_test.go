package wfserverless

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists what may stay reachable from tests alone:
// conformance is test infrastructure by design, and journal.Snapshot
// waits for the service log's compaction to call it (as does the
// method Journal.Compact; methods are outside the scan).
var testOnlyAllowed = map[string]bool{
	"wfserverless/internal/wfbench/conformance": true,
	"wfserverless/internal/journal.Snapshot":    true,
}

// TestNoTestOnlyDeclarations fails on an exported package-level func,
// type, var or const under internal/ that no non-test file reaches. It
// parses every non-test file of the repository, bench/ included, and
// marks declarations live from the roots outward: every declaration
// outside internal/, every unexported one, and every method of a type
// that is live. A reference is a selector through an import or, inside
// a package, an identifier naming one of its declarations; a blank
// `var _ T = ...` assertion keeps nothing live.
func TestNoTestOnlyDeclarations(t *testing.T) {
	decls, err := scanDecls(".", "wfserverless")
	if err != nil {
		t.Fatal(err)
	}
	if dead := unreached(decls); len(dead) > 0 {
		t.Errorf("reached from tests only (delete them, or give them a caller):\n\t%s", strings.Join(dead, "\n\t"))
	}
}

// decl is one package-level declaration: a func, a method (recv names
// its type), a type, or a var/const spec (which declares names).
type decl struct {
	pkg   string   // import path of its package
	names []string // the names it declares
	recv  string   // the receiver type of a method
	refs  []string // "importpath.Name" keys it references
}

// scanDecls parses the non-test Go files under root, whose module is
// module, into their package-level declarations.
func scanDecls(root, module string) ([]*decl, error) {
	type file struct {
		pkg string
		f   *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{path.Join(module, filepath.ToSlash(filepath.Dir(p))), f})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Package-level names by package, for references inside a package.
	declared := map[string]bool{}
	pkgName := map[string]string{}
	for _, fl := range files {
		pkgName[fl.pkg] = fl.f.Name.Name
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declared[fl.pkg+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declared[fl.pkg+"."+s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declared[fl.pkg+"."+n.Name] = true
						}
					}
				}
			}
		}
	}
	var decls []*decl
	for _, fl := range files {
		imports := map[string]string{} // local name -> import path
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if n, ok := pkgName[p]; ok {
				name = n
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		refsOf := func(nodes ...ast.Node) []string {
			var refs []string
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						refs = append(refs, imports[x.Name]+"."+n.Sel.Name)
					} else {
						ast.Inspect(n.X, visit) // Sel is a field or method
					}
					return false
				case *ast.Ident:
					if declared[fl.pkg+"."+n.Name] {
						refs = append(refs, fl.pkg+"."+n.Name)
					}
				}
				return true
			}
			for _, n := range nodes {
				if n != nil && n != (*ast.FieldList)(nil) && n != (*ast.BlockStmt)(nil) {
					ast.Inspect(n, visit)
				}
			}
			return refs
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				dl := &decl{pkg: fl.pkg, refs: refsOf(d.Type, d.Body)}
				if d.Recv != nil && len(d.Recv.List) > 0 {
					dl.recv = recvType(d.Recv.List[0].Type)
				} else {
					dl.names = []string{d.Name.Name}
				}
				decls = append(decls, dl)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						decls = append(decls, &decl{pkg: fl.pkg, names: []string{s.Name.Name}, refs: refsOf(s.TypeParams, s.Type)})
					case *ast.ValueSpec:
						dl := &decl{pkg: fl.pkg, refs: refsOf(s.Type)}
						for _, v := range s.Values {
							dl.refs = append(dl.refs, refsOf(v)...)
						}
						for _, n := range s.Names {
							if n.Name != "_" {
								dl.names = append(dl.names, n.Name)
							}
						}
						if len(dl.names) > 0 {
							decls = append(decls, dl)
						}
					}
				}
			}
		}
	}
	return decls, nil
}

// recvType names a method's receiver type: T of T, *T, T[P] or *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// candidate reports whether key ("importpath.Name") is an exported
// package-level name under internal/ that must have a non-test caller.
func candidate(key string) bool {
	dot := strings.LastIndexByte(key, '.')
	pkg, name := key[:dot], key[dot+1:]
	return strings.HasPrefix(pkg, "wfserverless/internal/") && ast.IsExported(name) &&
		!testOnlyAllowed[pkg] && !testOnlyAllowed[key]
}

// unreached returns the candidates no root reaches, sorted.
func unreached(decls []*decl) []string {
	byName := map[string][]*decl{}  // declarations of each candidate
	methods := map[string][]*decl{} // methods of each candidate type
	var work []*decl
	for _, d := range decls {
		if d.recv != "" {
			if key := d.pkg + "." + d.recv; candidate(key) {
				methods[key] = append(methods[key], d)
				continue
			}
			work = append(work, d)
			continue
		}
		root := false
		for _, n := range d.names {
			if key := d.pkg + "." + n; candidate(key) {
				byName[key] = append(byName[key], d)
			} else {
				root = true
			}
		}
		if root {
			work = append(work, d)
		}
	}
	live := map[string]bool{}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ref := range d.refs {
			if live[ref] || byName[ref] == nil {
				continue
			}
			live[ref] = true
			work = append(work, byName[ref]...)
			work = append(work, methods[ref]...)
		}
	}
	var dead []string
	for key := range byName {
		if !live[key] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	return dead
}
