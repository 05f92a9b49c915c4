// Command godoclint is the repository's documentation gate: it fails
// (exit 1) when an exported package-level identifier in any of the given
// directories lacks a doc comment. CI runs it over the root drrgossip
// package and every internal package (see the Makefile's doc-check
// target), so the API surface cannot grow undocumented.
//
// Usage:
//
//	go run ./cmd/godoclint .
//	go run ./cmd/godoclint . ./internal/*/
//
// The check covers exported functions, methods on exported receiver
// types, type declarations, and package-level const/var declarations
// (a doc comment on a grouped declaration covers the whole group, and a
// per-spec doc or trailing line comment counts too). Test files are
// skipped. This is deliberately narrower than a style linter: it gates
// presence, not phrasing.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: godoclint [dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	missing := 0
	for _, dir := range dirs {
		n, err := lintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "godoclint: %s: %v\n", dir, err)
			os.Exit(2)
		}
		missing += n
	}
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "godoclint: %d exported identifier(s) without doc comments\n", missing)
		os.Exit(1)
	}
}

// lintDir parses every non-test Go file in dir and reports undocumented
// exported declarations, returning how many it found.
func lintDir(dir string) (int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	missing := 0
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		fmt.Printf("%s:%d: %s %s has no doc comment\n", p.Filename, p.Line, kind, name)
		missing++
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					if recv, exported := receiver(d); recv != "" && !exported {
						continue // method on an unexported type
					} else if recv != "" {
						report(d.Pos(), "method", recv+"."+d.Name.Name)
					} else {
						report(d.Pos(), "func", d.Name.Name)
					}
				case *ast.GenDecl:
					lintGenDecl(d, report)
				}
			}
		}
	}
	return missing, nil
}

// receiver returns the receiver type name of a method ("" for plain
// functions) and whether that type is exported.
func receiver(d *ast.FuncDecl) (name string, exported bool) {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "", false
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.Name, tt.IsExported()
		default:
			return "", false
		}
	}
}

// lintGenDecl checks type, const and var declarations. A doc comment on
// the grouped declaration documents every spec in it; otherwise each
// exported spec needs its own doc or trailing line comment.
func lintGenDecl(d *ast.GenDecl, report func(pos token.Pos, kind, name string)) {
	if d.Tok == token.IMPORT || d.Doc != nil {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), strings.ToLower(d.Tok.String()), name.Name)
				}
			}
		}
	}
}
