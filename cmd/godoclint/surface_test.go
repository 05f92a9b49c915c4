package main

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// keep lists the package-level declarations under internal/ that no
// non-test code references but that stay, each with its reason. Keys are
// the package path below internal/, then the name; a method is written
// Type.Method.
var keep = map[string]string{
	"agg.GenLinear":            "input generator of the drrgossip tests; the fault studies still to come will use it",
	"agg.GenSigned":            "input generator of the pipeline, gossip and convergecast tests",
	"agg.GenSpike":             "adversarial input generator the fault studies still to come will use",
	"agg.GenZeroMean":          "input generator of the gossip tests",
	"bitset.Set.Clone":         "oracle of the bitset property tests",
	"bitset.Set.Equal":         "oracle of the bitset, fault-binding and route differential tests",
	"chord.Ring.Bits":          "sizes the route buffers of the chord route differential test",
	"faults.Bound.Rounds":      "read by TestBindMatchesReference to compare a binding with the reference copy",
	"faults.FromCrashFrac":     "round-0 crash plan that README names as equal to Config.CrashFrac",
	"forest.Forest.Depth":      "accessor the gossip transport and forest tests check climbs against",
	"forest.Forest.NumMembers": "accessor the Phase I builder tests check forests with",
	"forest.Forest.TreeSize":   "accessor the Local-DRR and forest tests check forests with",
	"forest.Forest.TreeSizes":  "accessor the kashyap and convergecast tests check forests with",
	"forest.Forest.Validate":   "structural check every Phase I builder test runs",
	"graph.FromAdjacency":      "builds the hand-written graphs of the graph, overlay and pairwise tests",
	"graph.Graph.Eccentricity": "distance oracle of the graph generator tests",
	"graph.Graph.HasEdge":      "adjacency oracle of the graph, overlay, chord and Local-DRR tests",
	"graph.Graph.Regular":      "degree oracle of the graph generator tests",
	"graph.Star":               "worst-case fixture of the overlay and Local-DRR tests",
	"hms.Walk.Probes":          "certification-walk cost the HMS tests bound",
	"metrics.MessageShapes":    "shape list the fit tests run over",
	"metrics.TimeShapes":       "shape list the fit tests run over",
	"sim.AbortError.Unwrap":    "errors.Is and errors.As call it through an unnamed interface",
	"sim.Core.AliveIDs":        "survivor list the facade, baseline and engine tests compute exact references over",
	"sim.Engine.PendingEmpty":  "engine invariant the delivery, reset and SendEach tests assert",
	"telemetry.NewRing":        "ring sink of the gated BenchmarkPerfTelemetry paired benchmark",
	"telemetry.Ring.Events":    "ring read-out the telemetry tests check",
	"telemetry.Ring.Total":     "ring read-out the telemetry tests check",
	"xrand.HashFloat":          "reference that TestKeyMatchesHash and FuzzKeyMatchesHash compare xrand.Key with",
}

// TestNoTestOnlySurface fails on a declaration under internal/ that only
// tests reach, so such code is deleted rather than left to rot, and on a
// keep entry that no longer names one.
func TestNoTestOnlySurface(t *testing.T) {
	p, err := load([]module{{"drrgossip", "../.."}, {"drrgossip/bench", "../../bench"}})
	if err != nil {
		t.Fatal(err)
	}
	got := unreferenced(p)
	seen := map[string]bool{}
	for _, d := range got {
		if _, ok := keep[d.key]; ok {
			seen[d.key] = true
			continue
		}
		t.Errorf("%s: %s has no non-test reference: delete it, or add it to keep with the reason it stays", d.pos, d.key)
	}
	for key := range keep {
		if !seen[key] {
			t.Errorf("keep entry %s does not name a declaration without non-test references: remove the entry", key)
		}
	}
}

// TestSurfaceReportsDeadExport runs the scan over a mini-module whose only
// unreferenced declaration is one exported function.
func TestSurfaceReportsDeadExport(t *testing.T) {
	p, err := load([]module{{"mini", "testdata/mini"}})
	if err != nil {
		t.Fatal(err)
	}
	if keys := declKeys(unreferenced(p)); !slices.Equal(keys, []string{"dead.Unused"}) {
		t.Fatalf("unreferenced = %v, want [dead.Unused]", keys)
	}
}

// TestNoSecondBill fails on a struct field or function result of type
// sim.Counters outside internal/sim and internal/telemetry: what a run
// cost is read from the engine (Stats, Ledger, Billed), and a driver
// that keeps its own copy makes a second bill to keep equal to it. The
// bench module, which snapshots the counters per trace span, is not
// scanned.
func TestNoSecondBill(t *testing.T) {
	p, err := load([]module{{"drrgossip", "../.."}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range secondBills(p) {
		t.Errorf("%s: %s carries sim.Counters: read the engine's Stats, Ledger or Billed instead", d.pos, d.key)
	}
}

// TestSecondBillReported runs the counters scan over the mini-module,
// whose driver package keeps a copy of its engine's counters in a
// result field and returns one from a function.
func TestSecondBillReported(t *testing.T) {
	p, err := load([]module{{"mini", "testdata/mini"}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"driver.Result.Stats", "driver.Run"}
	if keys := declKeys(secondBills(p)); !slices.Equal(keys, want) {
		t.Fatalf("second bills = %v, want %v", keys, want)
	}
}

// TestNoPayloadValues fails on any read or write of the value fields
// of sim.Payload (A, B, C) in the Phase II and III drivers. Their
// messages carry only a kind and, in Phase III, the sender's root slot:
// every landing reads the values from the sender's send-time snapshot,
// so a value riding the payload as well would be a second copy to keep
// equal to it. (An unkeyed Payload literal is go vet's to reject.)
func TestNoPayloadValues(t *testing.T) {
	p, err := load([]module{{"drrgossip", "../.."}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range payloadValues(p) {
		t.Errorf("%s: %s: read the value from the sender's snapshot instead", d.pos, d.key)
	}
}

// TestPayloadValuesReported runs the payload scan over the mini-module,
// whose gossip package writes a value into a payload and reads two
// back, and whose driver package, which the scan skips, reads one.
func TestPayloadValuesReported(t *testing.T) {
	p, err := load([]module{{"mini", "testdata/mini"}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"gossip.Payload.A", "gossip.Payload.A", "gossip.Payload.B"}
	if keys := declKeys(payloadValues(p)); !slices.Equal(keys, want) {
		t.Fatalf("payload values = %v, want %v", keys, want)
	}
}

// declKeys returns the keys of ds, in order.
func declKeys(ds []decl) []string {
	var keys []string
	for _, d := range ds {
		keys = append(keys, d.key)
	}
	return keys
}

// module is a Go module: its path and the directory holding its go.mod.
type module struct{ path, dir string }

// decl is a declaration the scan found without a non-test reference.
type decl struct {
	key string
	pos token.Position
}

// program is the type-checked non-test code of a set of modules.
type program struct {
	fset *token.FileSet
	pkgs map[string]*checked // by import path
}

// checked is one type-checked package.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// load type-checks the non-test files of every package in mods, which
// may import each other.
func load(mods []module) (*program, error) {
	fset := token.NewFileSet()
	dirs := map[string]string{} // import path -> directory
	for _, m := range mods {
		if err := packageDirs(m, dirs); err != nil {
			return nil, err
		}
	}
	// The standard library is type-checked from source; without cgo every
	// package it needs has a pure-Go build.
	build.Default.CgoEnabled = false
	std := importer.ForCompiler(fset, "source", nil)

	pkgs := map[string]*checked{}
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if _, ok := dirs[path]; ok {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if c, ok := pkgs[path]; ok {
			return c.pkg, nil
		}
		files, err := parseDir(fset, dirs[path])
		if err != nil {
			return nil, err
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		pkgs[path] = &checked{pkg, files, info}
		return pkg, nil
	}
	paths := make([]string, 0, len(dirs))
	for path := range dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := check(path); err != nil {
			return nil, err
		}
	}
	return &program{fset, pkgs}, nil
}

// unreferenced returns the package-level funcs, methods, types, consts
// and vars of p declared under an internal/ directory that nothing
// outside their own declaration references. A method that may be called
// through an interface is skipped, since such a call does not name it.
func unreferenced(p *program) []decl {
	// Every method-set interface, by method name, from the interfaces the
	// modules declare or write as literals and from every package they
	// import.
	ifaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() {
			for i := 0; i < it.NumMethods(); i++ {
				name := it.Method(i).Name()
				ifaces[name] = append(ifaces[name], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, c := range p.pkgs {
		walk(c.pkg)
		for _, tv := range c.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	// viaInterface reports whether method m may be called through an
	// interface: its receiver type, or a pointer to it, implements an
	// interface with a method of m's name. A generic receiver counts on
	// the name alone.
	viaInterface := func(m *types.Func) bool {
		t := m.Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, _ := t.(*types.Named)
		for _, it := range ifaces[m.Name()] {
			if named == nil || named.TypeParams().Len() > 0 ||
				types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	// The candidates, each with the source span of its own declaration;
	// a receiver's type name does not count as a use of the type.
	type span struct{ from, to token.Pos }
	own := map[types.Object]span{}
	keys := map[types.Object]string{}
	receivers := map[*ast.Ident]bool{}
	for path, c := range p.pkgs {
		_, rel, ok := strings.Cut(path, "/internal/")
		if !ok {
			continue
		}
		add := func(id *ast.Ident, key string, from, to token.Pos) {
			if id.Name == "_" {
				return
			}
			obj := c.info.Defs[id]
			own[obj] = span{from, to}
			keys[obj] = rel + "." + key
		}
		for _, f := range c.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						if d.Name.Name != "init" {
							add(d.Name, d.Name.Name, d.Pos(), d.End())
						}
						continue
					}
					recv := receiverIdent(d.Recv.List[0].Type)
					receivers[recv] = true
					if !viaInterface(c.info.Defs[d.Name].(*types.Func)) {
						add(d.Name, recv.Name+"."+d.Name.Name, d.Pos(), d.End())
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s.Name.Name, s.Pos(), s.End())
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, id.Name, s.Pos(), s.End())
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, c := range p.pkgs {
		for id, obj := range c.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if s, ok := own[obj]; ok && !receivers[id] && (id.Pos() < s.from || id.Pos() >= s.to) {
				used[obj] = true
			}
		}
	}
	var out []decl
	for obj, key := range keys {
		if !used[obj] {
			out = append(out, decl{key, p.fset.Position(obj.Pos())})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// secondBills returns the struct fields and the functions with a result
// of the type Counters of an internal/sim package of p, declared outside
// internal/sim and internal/telemetry. Each key starts with the package
// path below internal/ (the import path outside it); a field's goes on
// with its declared struct type's name, if any, and its own, and a
// function's with its name or Type.Method.
func secondBills(p *program) []decl {
	var counters types.Type
	for path, c := range p.pkgs {
		if strings.HasSuffix(path, "/internal/sim") {
			if obj := c.pkg.Scope().Lookup("Counters"); obj != nil {
				counters = obj.Type()
			}
		}
	}
	if counters == nil {
		return nil
	}
	var out []decl
	for path, c := range p.pkgs {
		rel := path
		if _, r, ok := strings.Cut(path, "/internal/"); ok {
			rel = r
		}
		if rel == "sim" || rel == "telemetry" {
			continue
		}
		report := func(key string, pos token.Pos) {
			out = append(out, decl{rel + "." + key, p.fset.Position(pos)})
		}
		returns := func(sig *types.Signature) bool {
			for i := 0; i < sig.Results().Len(); i++ {
				if types.Identical(sig.Results().At(i).Type(), counters) {
					return true
				}
			}
			return false
		}
		for _, f := range c.files {
			structName := map[*ast.StructType]string{} // declared struct types
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						structName[st] = n.Name.Name + "."
					}
				case *ast.StructType:
					for _, fld := range n.Fields.List {
						if types.Identical(c.info.TypeOf(fld.Type), counters) {
							for _, id := range fieldIdents(fld) {
								report(structName[n]+id.Name, id.Pos())
							}
						}
					}
				case *ast.FuncDecl:
					if returns(c.info.Defs[n.Name].Type().(*types.Signature)) {
						name := n.Name.Name
						if n.Recv != nil {
							name = receiverIdent(n.Recv.List[0].Type).Name + "." + name
						}
						report(name, n.Name.Pos())
					}
				case *ast.FuncLit:
					if returns(c.info.TypeOf(n).(*types.Signature)) {
						report("func literal", n.Pos())
					}
				}
				return true
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// payloadValues returns every use of the fields A, B and C of the type
// Payload of an internal/sim package of p in the non-test files of the
// internal/gossip and internal/convergecast packages: selections and
// composite-literal keys alike. Each key is the package path below
// internal/, then Payload and the field; the uses are in source order.
func payloadValues(p *program) []decl {
	values := map[types.Object]bool{}
	for path, c := range p.pkgs {
		if !strings.HasSuffix(path, "/internal/sim") {
			continue
		}
		if obj := c.pkg.Scope().Lookup("Payload"); obj != nil {
			st := obj.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Name() == "A" || f.Name() == "B" || f.Name() == "C" {
					values[f] = true
				}
			}
		}
	}
	var out []decl
	for path, c := range p.pkgs {
		_, rel, _ := strings.Cut(path, "/internal/")
		if rel != "gossip" && rel != "convergecast" {
			continue
		}
		for id, obj := range c.info.Uses {
			if values[obj] {
				out = append(out, decl{rel + ".Payload." + id.Name, p.fset.Position(id.Pos())})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos.Filename != out[j].pos.Filename {
			return out[i].pos.Filename < out[j].pos.Filename
		}
		return out[i].pos.Offset < out[j].pos.Offset
	})
	return out
}

// fieldIdents returns the names a struct field declares: its own, or for
// an embedded field the type name it is known by.
func fieldIdents(f *ast.Field) []*ast.Ident {
	if len(f.Names) > 0 {
		return f.Names
	}
	t := f.Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if sel, ok := t.(*ast.SelectorExpr); ok {
		return []*ast.Ident{sel.Sel}
	}
	return []*ast.Ident{t.(*ast.Ident)}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// packageDirs maps the import path of every package directory in m to
// the directory, skipping testdata, hidden and _-prefixed directories
// and nested modules.
func packageDirs(m module, dirs map[string]string) error {
	return filepath.WalkDir(m.dir, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		rel, err := filepath.Rel(m.dir, dir)
		if err != nil {
			return err
		}
		if rel != "." {
			name := e.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		files, err := goFiles(dir)
		if err != nil || len(files) == 0 {
			return err
		}
		path := m.path
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		dirs[path] = dir
		return nil
	})
}

// goFiles lists the non-test Go files in dir that the default build
// context selects.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files, nil
}

// parseDir parses the files goFiles selects in dir.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, len(names))
	for i, name := range names {
		if files[i], err = parser.ParseFile(fset, name, nil, parser.SkipObjectResolution); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// receiverIdent returns the type name of a method receiver expression.
func receiverIdent(t ast.Expr) *ast.Ident {
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		default:
			return t.(*ast.Ident)
		}
	}
}
