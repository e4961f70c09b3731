// Package reach holds three tests of what the module ships against what its
// programs run: every function is reached from a program
// (TestShippedCodeIsReached), every struct field under internal/ that
// program code reads is set by a program, and read if set
// (TestShippedFieldsAreSet), and every exported name under internal/ is
// used by another package (TestExportedNamesAreUsed). Each has an
// allow-list that says why an exception stays.
//
// The analysis type-checks every non-test package of the module under the
// host's build constraints (go/build) and walks references from the roots:
// the main function of every package main, the init functions and
// package-level variable initialisers of every package such a program
// imports, and every method through which an interface can dispatch — a
// method of a module type that implements an interface declaring a method of
// that name, where the interface is any interface type the programs' packages
// or their imports declare or write out. A function is reached when a reached
// body names it: a call, a function value or a method value all count.
package reach

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowed lists the functions no program reaches that ship anyway, keyed by
// funcKey, each with the one-line reason it stays: a format an open ROADMAP
// item builds on, an oracle a test compares against, or a view of state a
// test reads through.
var allowed = map[string]string{
	// The gnn checkpoint: ROADMAP item 7(a) (serving a trained model) builds on it.
	"(*gnn.Model).Save":        "checkpoint writer",
	"gnn.Load":                 "checkpoint reader, fuzzed by FuzzLoad",
	"gnn.writeMatrix":          "checkpoint writer's per-matrix record",
	"gnn.readMatrix":           "checkpoint reader's per-matrix record",
	"gnn.checkDims":            "the header bounds the checkpoint writer and reader share",
	"(*core.Engine).saveModel": "the engine's checkpoint entry point",

	// Gradient algebra the optimizer and sync tests build references with.
	"(*gnn.Gradients).Axpy":       "accumulates reference gradients in tests",
	"(*gnn.Gradients).Clone":      "copies reference gradients in tests",
	"(*gnn.Gradients).MaxAbsDiff": "compares gradients in the equivalence tests",

	// Graph invariant checkers and the oracles of the source-sorted scatter.
	"(*graph.Graph).Validate":          "CSR invariant checker the generator and graph tests assert",
	"(*graph.Partition).validate":      "partition invariant checker the partition tests assert",
	"(*graph.Graph).sortNeighborLists": "canonical neighbor order for graph-equality tests",
	"(*graph.Graph).EdgeList":          "coordinate form the generator and graph tests inspect",
	"graph.SortEdgesBySource":          "oracle layout for the scatter-gather fetch count (accel tests)",
	"graph.CountSourceRuns":            "oracle fetch count for the scatter-gather kernel (accel tests)",

	// Sampler forms tests drive directly.
	"(*sampler.Sampler).Sample": "SampleInto into fresh storage, the form tests sample with",
	"(*sampler.Block).Validate": "block invariant checker the sampler and accel tests assert",

	// serve's introspection accessors, which tests read state through.
	"(*serve.DynamicBatcher).pendingLen":        "queued requests the batcher tests count",
	"(*serve.ShardedCache).peek":                "reads an entry without touching recency (cache equivalence tests)",
	"(*serve.ShardedCache).count":               "entry count the cache tests check",
	"(*serve.ShardedCache).shardCount":          "shard count the configuration tests check",
	"(*serve.admissionController).kindInflight": "per-kind in-flight count the admission tests read",
	"(*serve.admissionController).outstanding":  "outstanding count the admission tests read",

	// Other state and fixtures tests read through.
	"(*bench.Table).lookup": "cell lookup the experiment-table tests read through",

	// tensor: test fixtures, comparisons and unfused oracles.
	"tensor.FromSlice":            "builds fixture matrices from literals",
	"(*tensor.Matrix).Clone":      "copies fixtures and references before an in-place kernel overwrites them",
	"(*tensor.Matrix).Equal":      "the bitwise comparison of every exact-equality test",
	"(*tensor.Matrix).allClose":   "the tolerance comparison of the tensor tests",
	"tensor.SplitCols":            "oracle: the full-width SAGE dDense split of gnn's backward oracle",
	"tensor.ReLUInto":             "oracle: the unfused ReLU of accel's dataflow-order forward",
	"tensor.DetectedSIMDLevel":    "bounds the SIMD-level loops of the bitwise tests",
	"(*tensor.Workspace).Bytes":   "arena footprint the footprint and workspace tests read",
	"(*tensor.Workspace).GetZero": "oracle: the zeroed input gradient of gnn's backward oracle",
	"(*tensor.slab[T]).bytes":     "Workspace.Bytes's per-slab term",
}

// module is the loaded, type-checked module.
type module struct {
	path string // module path from go.mod
	fset *token.FileSet
	pkgs map[string]*pkg // by import path: the module's non-test packages
	std  types.Importer
}

type pkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

func (m *module) Import(path string) (*types.Package, error) {
	if path == m.path || strings.HasPrefix(path, m.path+"/") {
		p, err := m.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return m.std.Import(path)
}

// load parses and type-checks the module package at path, once.
func (m *module) load(path string) (*pkg, error) {
	if p, ok := m.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	m.pkgs[path] = nil
	bp, err := build.ImportDir(m.dir(path), 0)
	if err != nil {
		return nil, err
	}
	p, err := m.check(path, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// dir returns the directory of the module package at path.
func (m *module) dir(path string) string {
	return filepath.Join(moduleRoot, strings.TrimPrefix(strings.TrimPrefix(path, m.path), "/"))
}

// check parses the named files of path's directory and type-checks them as
// the package path.
func (m *module) check(path string, names []string) (*pkg, error) {
	p := &pkg{info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(m.dir(path), name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: m}
	var err error
	if p.types, err = conf.Check(path, m.fset, p.files, p.info); err != nil {
		return nil, err
	}
	return p, nil
}

// moduleRoot is the directory holding go.mod, two levels above this package.
var moduleRoot = func() string {
	dir, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		panic(err)
	}
	return dir
}()

// loadModule type-checks every package directory under the module root that
// has non-test Go files for the host platform.
func loadModule(t *testing.T) *module {
	mod, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	var path string
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			path = strings.TrimSpace(rest)
		}
	}
	if path == "" {
		t.Fatal("go.mod names no module")
	}
	m := &module{path: path, fset: token.NewFileSet(), pkgs: map[string]*pkg{}, std: importer.Default()}
	err = filepath.WalkDir(moduleRoot, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != moduleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(dir, 0); err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(moduleRoot, dir)
		if err != nil {
			return err
		}
		imp := path
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		_, err = m.load(imp)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// funcKey names a function the way the allow-list does: its full name with
// the module path (and a leading "internal/") dropped, e.g. "gnn.Load" or
// "(*gnn.Model).Save".
func (m *module) funcKey(f *types.Func) string {
	name := f.FullName()
	name = strings.ReplaceAll(name, m.path+"/internal/", "")
	return strings.ReplaceAll(name, m.path+"/", "")
}

// reachability is the result of the walk from the programs' roots.
type reachability struct {
	bodies  map[*types.Func]*ast.BlockStmt // every declared function; nil body: assembly
	reached map[*types.Func]bool
	// roots are the init functions and package-variable declarations of the
	// packages programs import: code that runs without being named.
	roots []ast.Node
}

// code returns every node that runs in some program: the roots and the
// bodies of the reached functions.
func (r *reachability) code() []ast.Node {
	out := append([]ast.Node(nil), r.roots...)
	for fn := range r.reached {
		if body := r.bodies[fn]; body != nil {
			out = append(out, body)
		}
	}
	return out
}

// unreached returns the module's declared functions no root reaches, in
// source order.
func (m *module) unreached() []*types.Func {
	r := m.reach()
	var out []*types.Func
	for fn := range r.bodies {
		if !r.reached[fn] {
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// reach walks references from the programs' roots.
func (m *module) reach() *reachability {
	bodies := map[*types.Func]*ast.BlockStmt{}
	var roots []ast.Node
	var rootFuncs []*types.Func
	programs := map[*types.Package]bool{}
	for _, p := range m.pkgs {
		if p.types.Name() == "main" {
			programs[p.types] = true
		}
	}
	imported := closure(programs)
	for _, p := range m.pkgs {
		run := imported[p.types]
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name == "init" && d.Recv == nil {
						if run {
							roots = append(roots, d)
						}
						continue
					}
					fn := p.info.Defs[d.Name].(*types.Func)
					bodies[fn] = d.Body
					if d.Name.Name == "main" && d.Recv == nil && programs[p.types] {
						rootFuncs = append(rootFuncs, fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR && run {
						roots = append(roots, d)
					}
				}
			}
		}
	}
	rootFuncs = append(rootFuncs, m.dispatchable(imported)...)

	reached := map[*types.Func]bool{}
	var queue []*types.Func
	mark := func(fn *types.Func) {
		fn = fn.Origin()
		if _, ok := bodies[fn]; ok && !reached[fn] {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	uses := map[*ast.Ident]types.Object{}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Uses {
			uses[id] = obj
		}
	}
	walk := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := uses[id].(*types.Func); ok {
					mark(fn)
				}
			}
			return true
		})
	}
	for _, n := range roots {
		walk(n)
	}
	for _, fn := range rootFuncs {
		mark(fn)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if body := bodies[fn]; body != nil {
			walk(body)
		}
	}
	return &reachability{bodies: bodies, reached: reached, roots: roots}
}

// closure returns the packages the programs import, directly or not, the
// programs included.
func closure(programs map[*types.Package]bool) map[*types.Package]bool {
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for p := range programs {
		visit(p)
	}
	return seen
}

// dispatchable returns the methods an interface call can land in: for every
// interface the imported packages declare or write out (error included), each
// module type that implements it contributes its methods of those names.
func (m *module) dispatchable(imported map[*types.Package]bool) []*types.Func {
	var ifaces []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			ifaces = append(ifaces, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	var named []types.Type
	for p := range imported {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			add(tn.Type())
		}
	}
	for _, p := range m.pkgs {
		if !imported[p.types] {
			continue
		}
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, types.NewPointer(n))
					add(n)
				}
			}
		}
	}
	var out []*types.Func
	for _, t := range named {
		if types.IsInterface(t.(*types.Pointer).Elem()) {
			continue
		}
		ms := types.NewMethodSet(t)
		for _, it := range ifaces {
			if !types.Implements(t, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
					out = append(out, sel.Obj().(*types.Func))
				}
			}
		}
	}
	return out
}

func (m *module) where(pos token.Pos) string {
	p := m.fset.Position(pos)
	rel, err := filepath.Rel(moduleRoot, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}

// TestShippedCodeIsReached fails on every function no program reaches that
// the allow-list does not name, and on every allow-list entry that names a
// function a program reaches or one that no longer exists.
func TestShippedCodeIsReached(t *testing.T) {
	m := loadModule(t)
	listed := map[string]bool{}
	for _, fn := range m.unreached() {
		key := m.funcKey(fn)
		if _, ok := allowed[key]; ok {
			listed[key] = true
			continue
		}
		t.Errorf("%s: %s is reached by no program: delete it, or give it an allow-list entry with the reason it stays", m.where(fn.Pos()), key)
	}
	var stale []string
	for key := range allowed {
		if !listed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("allow-list entry %s names no unreached function: it is reached now, or gone; drop the entry", key)
	}
}
