package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerTestonly flags exported API under internal/ that no non-test
// file of the module references: functions, types, variables and
// methods that exist only for _test.go files, or for nothing. A test
// helper belongs in a _test.go file or internal/testutil; a deliberate
// verification oracle, or an API whose only caller is a module the
// loader cannot see, says so in a //lint:allow testonly directive.
//
// A reference is a types.Info Uses entry (go/types records every
// selector's Sel there, so Selections adds nothing) outside the
// object's own declaration, so recursion does not keep a function alive
// and a method's receiver does not keep its type alive. Constants and
// struct fields are out of scope. A method is exempt when some
// interface declares a method of the same name — in a loaded package,
// in a package the module imports, or error's Error — because a call
// through an interface never names the concrete method.
//
// References are complete only when the load covers the whole module
// (./... from the module root); on a partial load testonly reports
// nothing.
func AnalyzerTestonly() *Analyzer {
	return &Analyzer{
		Name: "testonly",
		Doc:  "flags exported internal/ API that only tests reference (needs ./... from the module root)",
		Run:  runTestonly,
	}
}

// refIndex is the module-wide view testonly checks each package against.
type refIndex struct {
	// uses holds, per exported object, the positions in non-test files
	// that reference it.
	uses map[types.Object][]token.Pos
	// ifaceMethods names every method some interface declares.
	ifaceMethods map[string]bool
}

// references builds the load's reference index on first use.
func (s *loadSet) references() *refIndex {
	if s.refs != nil {
		return s.refs
	}
	idx := &refIndex{uses: make(map[types.Object][]token.Pos), ifaceMethods: make(map[string]bool)}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				idx.ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	imported := make(map[*types.Package]bool)
	for _, pkg := range s.pkgs {
		receivers := receiverTypeIdents(pkg)
		for id, obj := range pkg.Info.Uses {
			if !receivers[id] {
				idx.add(obj, id.Pos())
			}
		}
		// Interfaces written in the module: declared, embedded or literal.
		for e, tv := range pkg.Info.Types {
			if _, ok := e.(*ast.InterfaceType); ok {
				addIface(tv.Type)
			}
		}
		if pkg.Types != nil {
			for _, imp := range pkg.Types.Imports() {
				imported[imp] = true
			}
		}
	}
	// Interfaces the module's imports declare (fmt.Stringer,
	// heap.Interface with its embedded sort.Interface, ...).
	for imp := range imported {
		scope := imp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	s.refs = idx
	return idx
}

// receiverTypeIdents collects the type name of every method receiver in
// pkg: a method belongs to its type's declaration, not a use of it.
func receiverTypeIdents(pkg *Package) map[*ast.Ident]bool {
	ids := make(map[*ast.Ident]bool)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				t := fd.Recv.List[0].Type
				if star, ok := t.(*ast.StarExpr); ok {
					t = star.X
				}
				switch x := t.(type) {
				case *ast.IndexExpr:
					t = x.X
				case *ast.IndexListExpr:
					t = x.X
				}
				if id, ok := t.(*ast.Ident); ok {
					ids[id] = true
				}
			}
		}
	}
	return ids
}

func (r *refIndex) add(obj types.Object, pos token.Pos) {
	if obj == nil || !obj.Exported() {
		return
	}
	// A use of a generic function or type's member names an instance;
	// credit the declaration.
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	r.uses[obj] = append(r.uses[obj], pos)
}

// usedOutside reports whether obj is referenced anywhere but inside decl.
func (r *refIndex) usedOutside(obj types.Object, decl ast.Node) bool {
	for _, p := range r.uses[obj] {
		if p < decl.Pos() || p >= decl.End() {
			return true
		}
	}
	return false
}

func runTestonly(pkg *Package, rep *Reporter) {
	if pkg.load == nil || !pkg.load.whole || !strings.HasPrefix(pkg.RelPath+"/", "internal/") {
		return
	}
	refs := pkg.load.references()
	check := func(name *ast.Ident, decl ast.Node, what string) {
		if !name.IsExported() {
			return
		}
		if obj := pkg.Info.Defs[name]; obj == nil || refs.usedOutside(obj, decl) {
			return
		}
		rep.Reportf(name.Pos(), "%s is referenced only by tests, if at all: delete it, move it into a _test.go file or internal/testutil, or justify it with //lint:allow testonly", what)
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv == nil:
					check(d.Name, d, "func "+d.Name.Name)
				case !refs.ifaceMethods[d.Name.Name]:
					check(d.Name, d, "method ("+exprString(d.Recv.List[0].Type)+")."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name, s, "type "+s.Name.Name)
					case *ast.ValueSpec:
						if d.Tok == token.VAR {
							for _, n := range s.Names {
								check(n, s, "var "+n.Name)
							}
						}
					}
				}
			}
		}
	}
}
