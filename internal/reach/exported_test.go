package reach

import (
	"go/build"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// allowedExports lists the exported names under internal/ that no other
// package uses yet stay exported, keyed as exportKey names them, each with
// the one-line reason it stays.
var allowedExports = map[string]string{}

// exportKey names an exported object the way the allow-list does: a function
// or method as funcKey does, anything else as package and name, e.g.
// "hw.Device".
func (m *module) exportKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return m.funcKey(fn)
	}
	return strings.TrimPrefix(obj.Pkg().Path(), m.path+"/internal/") + "." + obj.Name()
}

// testVariants type-checks, for every package directory of the module with
// test files, those files together with the package's own Go files as one
// package — the package its tests compile into. Each imports the other
// packages' non-test forms, so their uses land on the module's objects.
func (m *module) testVariants(t *testing.T) []*pkg {
	var out []*pkg
	for path := range m.pkgs {
		bp, err := build.ImportDir(m.dir(path), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(bp.XTestGoFiles) > 0 {
			t.Fatalf("%s: external test packages are not analysed; write the tests in package %s", path, bp.Name)
		}
		if len(bp.TestGoFiles) == 0 {
			continue
		}
		p, err := m.check(path, append(append([]string(nil), bp.GoFiles...), bp.TestGoFiles...))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// exportedNames returns the exported names the concept count counts under
// internal/: package-level objects and the methods of named types.
func (m *module) exportedNames() []types.Object {
	var out []types.Object
	for path, p := range m.pkgs {
		if !strings.HasPrefix(path, m.path+"/internal/") || p.types.Name() == "main" {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				out = append(out, obj)
			}
			if tn, ok := obj.(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < n.NumMethods(); i++ {
						if n.Method(i).Exported() {
							out = append(out, n.Method(i))
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// usedOutside returns the objects that some package names outside the
// package declaring them — a program, another package or another package's
// tests — plus the named types such a name's API exposes: the types of its
// signature, variable or constant, and for a type its exported fields and
// its interface's methods, transitively.
func (m *module) usedOutside(tests []*pkg) map[types.Object]bool {
	used := map[types.Object]bool{}
	var queue []types.Object
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj.Pkg() == nil || used[obj] {
			return
		}
		used[obj] = true
		queue = append(queue, obj)
	}
	pkgs := tests
	for _, p := range m.pkgs {
		pkgs = append(pkgs, p)
	}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() != p.types.Path() {
				mark(obj)
			}
		}
	}
	seen := map[types.Type]bool{}
	var expose func(t types.Type)
	expose = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			mark(t.Origin().Obj())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				expose(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			expose(t.Elem())
		case *types.Slice:
			expose(t.Elem())
		case *types.Array:
			expose(t.Elem())
		case *types.Map:
			expose(t.Key())
			expose(t.Elem())
		case *types.Chan:
			expose(t.Elem())
		case *types.Signature:
			for i := 0; i < t.Params().Len(); i++ {
				expose(t.Params().At(i).Type())
			}
			for i := 0; i < t.Results().Len(); i++ {
				expose(t.Results().At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					expose(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				expose(t.Method(i).Type())
			}
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		if tn, ok := obj.(*types.TypeName); ok {
			expose(tn.Type().Underlying())
			continue
		}
		expose(obj.Type())
	}
	return used
}

// TestExportedNamesAreUsed fails on every exported name under internal/ that
// no other package uses — no program, no other package and no other
// package's tests name it, and it is not a type in the API of a name they do
// use, nor a method an interface dispatches through — unless the allow-list
// names it; and on every allow-list entry that names a used name or one that
// no longer exists. Uses are type-checked: a string or a comment naming an
// object is no use of it. Under -v it logs the count of exported names.
func TestExportedNamesAreUsed(t *testing.T) {
	m := loadModule(t)
	used := m.usedOutside(m.testVariants(t))
	imported := map[*types.Package]bool{}
	for _, p := range m.pkgs {
		imported[p.types] = true
	}
	dispatched := map[types.Object]bool{}
	for _, fn := range m.dispatchable(closure(imported)) {
		dispatched[fn.Origin()] = true
	}
	names := m.exportedNames()
	t.Logf("%d exported names under internal/, %d on the allow-list", len(names), len(allowedExports))
	listed := map[string]bool{}
	for _, obj := range names {
		if used[obj] || dispatched[obj] {
			continue
		}
		key := m.exportKey(obj)
		if _, ok := allowedExports[key]; ok {
			listed[key] = true
			continue
		}
		t.Errorf("%s: %s is used by no other package: unexport it, or give it an allow-list entry with the reason it stays exported", m.where(obj.Pos()), key)
	}
	var stale []string
	for key := range allowedExports {
		if !listed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("export allow-list entry %s names no exported name that other packages leave unused: it is used now, unexported or gone; drop the entry", key)
	}
}
