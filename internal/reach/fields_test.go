package reach

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// allowedFields lists the struct fields declared under internal/ that break
// TestShippedFieldsAreSet's rule yet ship anyway, keyed as declaredField
// names them, each with the one-line reason it stays: an open ROADMAP item
// that sets or reads it, a golden that pins it, or a seam or result a test
// reads through.
var allowedFields = map[string]string{
	// Read, never set: knobs an open ROADMAP item or a golden still needs.
	"gnn.Config.Degrees":   "GCN's Eq. 3 normalisation, set only by tests until ROADMAP item 13 wires InDegrees in",
	"cluster.nodeSync.tap": "test seam: the fault tests observe each ring round's vectors through it",

	// Set, never read by a program.
	"cluster.MultiNode.syncs":                 "test seam: the fault tests install nodeSync.tap through it",
	"core.InferResult.Targets":                "the hand-off tests identify the batch a slot holds by it",
	"core.InferResult.FPGA":                   "the FPGA account the pricing, split and FPGA-worker tests compare",
	"serve.server.handoffs":                   "the hand-off count the hand-off tests assert",
	"serve.Stats.CacheHits":                   "goldenServeSig pins it",
	"serve.ClassStats.MeanSec":                "goldenServeSig's per-class rows pin it",
	"perfmodel.ServingDevicePrediction.Stage": "the per-device stage vector the serving-model tests check",
	"bench.faultVariant.Redispatched":         "the fault drill's test asserts the failover re-dispatched a batch",
	"pipesim.Result.IterSec":                  "per-iteration times the simulator tests check; the simulator leaves in ROADMAP item 10",
	"gnn.ForwardState.mb":                     "gnn's backward oracle reads the blocks through it; BackwardWS reads them from the neighborhoods",
}

// fieldUse is what the code that runs in some program does with one field.
type fieldUse struct{ read, set bool }

// fieldUses classifies every field selection in code, the nodes that run in
// some program.
//
// A field is set by a composite-literal key or positional element, and by
// the left-hand side of an assignment, an inc/dec, a range key or value or
// the first argument of copy or clear — through index, slice, dereference
// and nested selectors, so p.Stage.SampCPU = v sets Stage too. Taking its
// address, explicitly or by calling a pointer-receiver method on it, both
// sets and reads it: the pointer may do either. (A field with a json tag is
// set by the decoder; the caller adds that.) An assignment to an exported
// field inside if x.f <= 0 / == 0 / == "" / == nil { x.f = … } is a
// default, not a setting: a knob is set by a program, not by the code that
// reads it. Unexported lazily built state (core.Engine.slots) is exempt, as
// it is no knob. A selection on the right of an assignment that the left
// sets, as in x.f = append(x.f, v), is part of that update, not a read: it
// is x.f += v spelled out. Every other selection of a field reads it, and a
// promoted method both sets and reads the embedded fields it passes through.
func (m *module) fieldUses(code []ast.Node) map[*types.Var]*fieldUse {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	for _, p := range m.pkgs {
		for k, v := range p.info.Types {
			info.Types[k] = v
		}
		for k, v := range p.info.Uses {
			info.Uses[k] = v
		}
		for k, v := range p.info.Selections {
			info.Selections[k] = v
		}
	}
	uses := map[*types.Var]*fieldUse{}
	use := func(v *types.Var) *fieldUse {
		v = v.Origin()
		u := uses[v]
		if u == nil {
			u = &fieldUse{}
			uses[v] = u
		}
		return u
	}
	// field returns the field x selects and the embedded fields the
	// selection passes through (nil: x selects no field).
	field := func(x *ast.SelectorExpr) (*types.Var, []*types.Var) {
		sel := info.Selections[x]
		if sel == nil || sel.Kind() != types.FieldVal {
			return nil, nil
		}
		return sel.Obj().(*types.Var), embedded(sel)
	}

	for _, n := range code {
		set := map[*ast.SelectorExpr]bool{}       // selections a write sets
		defaulted := map[*ast.SelectorExpr]bool{} // writes that only default
		shared := map[*ast.SelectorExpr]bool{}    // set selections whose address escapes: read too
		update := map[*ast.SelectorExpr]bool{}    // reads that only feed their own field's write
		// target marks the selections the operand e of a write sets; escape
		// marks them read too, for an operand whose address escapes.
		var target func(e ast.Expr, escape bool)
		target = func(e ast.Expr, escape bool) {
			switch x := e.(type) {
			case *ast.ParenExpr:
				target(x.X, escape)
			case *ast.IndexExpr:
				target(x.X, escape)
			case *ast.SliceExpr:
				target(x.X, escape)
			case *ast.StarExpr:
				target(x.X, escape)
			case *ast.SelectorExpr:
				if f, _ := field(x); f != nil {
					set[x] = true
					shared[x] = shared[x] || escape
					target(x.X, escape)
				}
			}
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				lhs := map[string]bool{}
				for _, e := range x.Lhs {
					target(e, false)
					ast.Inspect(e, func(n ast.Node) bool {
						if s, ok := n.(*ast.SelectorExpr); ok && set[s] {
							lhs[types.ExprString(s)] = true
						}
						return true
					})
				}
				// x.f = g(x.f) updates x.f as x.f += v does: it reads
				// nothing that survives the statement.
				for _, e := range x.Rhs {
					ast.Inspect(e, func(n ast.Node) bool {
						if s, ok := n.(*ast.SelectorExpr); ok && lhs[types.ExprString(s)] {
							update[s] = true
						}
						return true
					})
				}
			case *ast.IncDecStmt:
				target(x.X, false)
			case *ast.RangeStmt:
				if x.Key != nil {
					target(x.Key, false)
				}
				if x.Value != nil {
					target(x.Value, false)
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					target(x.X, true)
				}
			case *ast.CallExpr:
				if id, ok := unparen(x.Fun).(*ast.Ident); ok && len(x.Args) > 0 {
					if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "copy" || b.Name() == "clear") {
						target(x.Args[0], false)
					}
				}
			case *ast.SelectorExpr:
				// x.f.M() with M on *T and x.f a T takes &x.f.
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.MethodVal {
					recv := sel.Obj().(*types.Func).Type().(*types.Signature).Recv()
					if _, ptr := recv.Type().(*types.Pointer); ptr && !sel.Indirect() {
						if _, ptrX := info.Types[x.X].Type.Underlying().(*types.Pointer); !ptrX {
							target(x.X, true)
						}
					}
				}
			case *ast.CompositeLit:
				st, ok := compositeStruct(info.Types[x].Type)
				if !ok {
					break
				}
				for i, e := range x.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							use(f).set = true
						}
					} else {
						use(st.Field(i)).set = true
					}
				}
			case *ast.IfStmt:
				cond, ok := defaultCheck(x.Cond)
				if !ok {
					break
				}
				if f, _ := field(cond); f == nil || !f.Exported() {
					break
				}
				want := types.ExprString(cond)
				ast.Inspect(x.Body, func(n ast.Node) bool {
					if a, ok := n.(*ast.AssignStmt); ok {
						for _, e := range a.Lhs {
							if s, ok := unparen(e).(*ast.SelectorExpr); ok && types.ExprString(s) == want {
								defaulted[s] = true
							}
						}
					}
					return true
				})
			}
			return true
		})
		ast.Inspect(n, func(n ast.Node) bool {
			x, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			sel := info.Selections[x]
			if sel == nil {
				return true
			}
			if sel.Kind() != types.FieldVal {
				// A promoted method uses the embedded fields it passes
				// through.
				for _, e := range embedded(sel) {
					u := use(e)
					u.read, u.set = true, true
				}
				return true
			}
			f, via := field(x)
			for _, v := range append(via, f) {
				u := use(v)
				switch {
				case defaulted[x], update[x]:
				case set[x]:
					u.set = true
					u.read = u.read || shared[x]
				default:
					u.read = true
				}
			}
			return true
		})
	}
	return uses
}

// embedded returns the embedded fields a selection passes through on its way
// to the selected field or method.
func embedded(sel *types.Selection) []*types.Var {
	var out []*types.Var
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		f := t.Underlying().(*types.Struct).Field(i)
		out = append(out, f)
		t = f.Type()
	}
	return out
}

// compositeStruct returns the struct type a composite literal of type t
// builds.
func compositeStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// defaultCheck matches a condition x.f <= 0, x.f == 0, x.f == "" or
// x.f == nil and returns x.f.
func defaultCheck(cond ast.Expr) (*ast.SelectorExpr, bool) {
	b, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok || (b.Op != token.LEQ && b.Op != token.EQL) {
		return nil, false
	}
	s, ok := unparen(b.X).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	switch y := unparen(b.Y).(type) {
	case *ast.BasicLit:
		if v, err := strconv.ParseFloat(y.Value, 64); (err == nil && v == 0) || y.Value == `""` {
			return s, true
		}
	case *ast.Ident:
		if y.Name == "nil" && b.Op == token.EQL {
			return s, true
		}
	}
	return nil, false
}

// declaredField is one field declared in the module's shipped code, named
// for the allow-list: package, type and field, e.g. "core.InferConfig.Device"
// (a field of an anonymous struct appends its own name to its parent's).
type declaredField struct {
	v    *types.Var
	key  string
	json bool // carries a json key, which encoding/json's decoder writes
}

// internalFields returns the fields declared in non-test files under
// internal/, in source order.
func (m *module) internalFields() []declaredField {
	var out []declaredField
	var visit func(prefix string, st *types.Struct)
	visit = func(prefix string, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" {
				continue
			}
			tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json")
			out = append(out, declaredField{v: f, key: prefix + "." + f.Name(), json: ok && tag != "-"})
			if inner, ok := f.Type().(*types.Struct); ok {
				visit(prefix+"."+f.Name(), inner)
			}
		}
	}
	for path, p := range m.pkgs {
		short, ok := strings.CutPrefix(path, m.path+"/internal/")
		if !ok {
			continue
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					visit(short+"."+tn.Name(), st)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].v.Pos() < out[j].v.Pos() })
	return out
}

// concepts counts what a reader of the module's surface must learn: the
// command-line flags the programs define, the fields of the *Config structs,
// the environment variables read, and the exported names (package-level
// functions, types, constants and variables, and methods) of the non-main
// packages.
func (m *module) concepts() (flags, configFields, envVars, exported int) {
	env := map[string]bool{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "flag":
					if flagDefiners[fn.Name()] {
						flags++
					}
				case "os":
					if (fn.Name() == "Getenv" || fn.Name() == "LookupEnv") && len(call.Args) == 1 {
						if tv := p.info.Types[call.Args[0]]; tv.Value != nil {
							env[tv.Value.ExactString()] = true
						}
					}
				}
				return true
			})
		}
		if p.types.Name() == "main" {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				exported++
			}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < n.NumMethods(); i++ {
					if n.Method(i).Exported() {
						exported++
					}
				}
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok && strings.HasSuffix(name, "Config") {
				configFields += st.NumFields()
			}
		}
	}
	return flags, configFields, len(env), exported
}

// flagDefiners are the functions and FlagSet methods of package flag that
// define a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// maxConcepts is the module's concept count (see concepts), exactly: a change
// that adds a flag, a Config field, an env var or an exported name fails
// TestShippedFieldsAreSet until it raises the constant in its own diff, and
// one that deletes concepts fails until it lowers it to the new count.
const maxConcepts = 511

// TestShippedFieldsAreSet fails on every field declared under internal/ that
// the code programs run reads but no program sets — a knob nothing turns —
// or sets but never reads, unless the allow-list names it; on every
// allow-list entry that names a field that passes, or one that no longer
// exists; and when the module's concept count is not maxConcepts. Under -v
// it logs the count.
func TestShippedFieldsAreSet(t *testing.T) {
	m := loadModule(t)
	flags, configFields, envVars, exported := m.concepts()
	concepts := fmt.Sprintf("%d = %d flags + %d Config fields + %d env vars + %d exported names",
		flags+configFields+envVars+exported, flags, configFields, envVars, exported)
	t.Logf("concepts: %s", concepts)
	switch n := flags + configFields + envVars + exported; {
	case n > maxConcepts:
		t.Errorf("concepts: %s, above the ceiling maxConcepts = %d: delete a concept or raise the ceiling", concepts, maxConcepts)
	case n < maxConcepts:
		t.Errorf("concepts: %s, below the ceiling maxConcepts = %d: lower it to %d", concepts, maxConcepts, n)
	}

	uses := m.fieldUses(m.reach().code())
	fields := m.internalFields()
	t.Logf("%d fields declared under internal/, %d on the allow-list", len(fields), len(allowedFields))
	listed := map[string]bool{}
	for _, f := range fields {
		var u fieldUse
		if p := uses[f.v]; p != nil {
			u = *p
		}
		set := u.set || f.json
		var problem string
		switch {
		case u.read && !set:
			problem = "is read by program code but no program sets it: fold its value in"
		case set && !u.read:
			problem = "is set but no program reads it: delete it"
		case !set && !u.read:
			problem = "is neither set nor read by any program: delete it"
		default:
			continue
		}
		if _, ok := allowedFields[f.key]; ok {
			listed[f.key] = true
			continue
		}
		t.Errorf("%s: %s %s, or give it an allow-list entry with the reason it stays", m.where(f.v.Pos()), f.key, problem)
	}
	var stale []string
	for key := range allowedFields {
		if !listed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("field allow-list entry %s names no field that breaks the rule: it is set and read now, or gone; drop the entry", key)
	}
}

// unparen strips the parentheses around e.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// fieldUses's rules on a snippet: each field's comment says what the code
// does with it.
func TestFieldUseRules(t *testing.T) {
	const src = `package p

type T struct {
	Lit       int // a composite-literal key
	Assigned  int // assigned
	Read      int // read
	Defaulted int // read, and assigned only inside its zero check
	lazy      int // the same, unexported: state, not a knob
	Updated   int // x.f = x.f + 1
	Addr      int // its address taken
	Nested    inner
	Buf       []int
	Ctr       counter
}

type inner struct{ Set int }

type pair struct{ A, B int }

type counter struct{ n int }

func (c *counter) inc() { c.n++ }

func f(x *T) int {
	_ = T{Lit: 1}
	_ = pair{1, 2}
	x.Assigned = 1
	if x.Defaulted <= 0 {
		x.Defaulted = 4
	}
	if x.lazy == 0 {
		x.lazy = 4
	}
	x.Updated = x.Updated + 1
	p := &x.Addr
	x.Nested.Set = 2
	x.Buf = append(x.Buf, 1)
	x.Ctr.inc()
	return x.Read + x.Defaulted + x.lazy + *p
}
`
	set, read, both := fieldUse{set: true}, fieldUse{read: true}, fieldUse{read: true, set: true}
	want := map[string]fieldUse{
		"Lit": set, "Assigned": set, "Read": read, "Defaulted": read, "lazy": both,
		"Updated": set, "Addr": both, "Nested": set, "Set": set, "Buf": set,
		"Ctr": both, "n": set, "A": set, "B": set,
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &pkg{files: []*ast.File{f}, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	if p.types, err = (&types.Config{}).Check("p", fset, p.files, p.info); err != nil {
		t.Fatal(err)
	}
	var code []ast.Node
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			code = append(code, fd.Body)
		}
	}
	got := map[string]fieldUse{}
	for v, u := range (&module{pkgs: map[string]*pkg{"p": p}}).fieldUses(code) {
		got[v.Name()] = *u
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: read %v, set %v; want read %v, set %v", name, got[name].read, got[name].set, w.read, w.set)
		}
	}
}
