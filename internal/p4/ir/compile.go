package ir

import (
	"fmt"
	"sort"
	"strings"

	"switchv/internal/p4/ast"
	"switchv/internal/p4/token"
	"switchv/internal/p4/value"
)

// Compile lowers a parsed P4 model into IR, resolving types, flattening the
// field space, and checking that all references are well-formed.
func Compile(prog *ast.Program) (*Program, error) {
	c := &compiler{
		src: prog,
		out: &Program{
			Name:         prog.Name,
			Consts:       map[string]uint64{},
			fieldByName:  map[string]*Field{},
			tableByName:  map[string]*Table{},
			actionByName: map[string]*Action{},
		},
		typeWidths:  map[string]int{},
		headerTypes: map[string]*ast.Header{},
		structTypes: map[string]*ast.Struct{},
	}
	if err := c.run(); err != nil {
		return nil, err
	}
	return c.out, nil
}

type compiler struct {
	src *ast.Program
	out *Program

	typeWidths  map[string]int
	headerTypes map[string]*ast.Header
	structTypes map[string]*ast.Struct
}

func (c *compiler) errf(pos token.Pos, format string, args ...any) error {
	return fmt.Errorf("p4: %s: %s", pos, fmt.Sprintf(format, args...))
}

func (c *compiler) run() error {
	// Type environment.
	for _, td := range c.src.Typedefs {
		w, err := c.widthOf(td.Type)
		if err != nil {
			return err
		}
		if _, dup := c.typeWidths[td.Name]; dup {
			return c.errf(td.Pos, "duplicate typedef %s", td.Name)
		}
		c.typeWidths[td.Name] = w
	}
	for _, h := range c.src.Headers {
		if _, dup := c.headerTypes[h.Name]; dup {
			return c.errf(h.Pos, "duplicate header %s", h.Name)
		}
		c.headerTypes[h.Name] = h
	}
	for _, s := range c.src.Structs {
		if _, dup := c.structTypes[s.Name]; dup {
			return c.errf(s.Pos, "duplicate struct %s", s.Name)
		}
		c.structTypes[s.Name] = s
	}
	for _, cn := range c.src.Consts {
		if _, dup := c.out.Consts[cn.Name]; dup {
			return c.errf(cn.Pos, "duplicate const %s", cn.Name)
		}
		c.out.Consts[cn.Name] = cn.Value
	}

	// Synthetic pipeline-state fields.
	for _, sf := range []struct {
		name  string
		width int
	}{
		{FieldDrop, 1}, {FieldPunt, 1}, {FieldCopy, 1},
		{FieldMirror, 1}, {FieldMirrorSession, PortWidth},
	} {
		c.addField(&Field{Name: sf.name, Width: sf.width})
	}

	// Flatten control parameters into the field space. The same parameter
	// name must map to the same struct type in every control.
	paramTypes := map[string]string{}
	for _, ctrl := range c.src.Controls {
		for _, p := range ctrl.Params {
			if p.Type.IsBits() || p.Type.Name == "bool" {
				return c.errf(p.Pos, "control parameter %s must have struct type", p.Name)
			}
			if p.Type.Name == "standard_metadata_t" && c.structTypes[p.Type.Name] == nil {
				c.injectStandardMetadata()
			}
			st, ok := c.structTypes[p.Type.Name]
			if !ok {
				return c.errf(p.Pos, "unknown struct type %s for parameter %s", p.Type.Name, p.Name)
			}
			if prev, seen := paramTypes[p.Name]; seen {
				if prev != p.Type.Name {
					return c.errf(p.Pos, "parameter %s has type %s here but %s elsewhere", p.Name, p.Type.Name, prev)
				}
				continue
			}
			paramTypes[p.Name] = p.Type.Name
			if err := c.flattenStruct(p.Name, st); err != nil {
				return err
			}
		}
	}
	// Alias the program's standard metadata param to the canonical names.
	c.aliasStandardMetadata(paramTypes)

	// The implicit NoAction.
	noAct := &Action{Name: "no_action"}
	c.out.NoAction = noAct
	c.registerAction(noAct)

	// Declare all actions and tables first (so tables can reference
	// actions in any order and refers_to can reference any table), then
	// compile bodies.
	var allTables []*ast.Table
	for _, ctrl := range c.src.Controls {
		for _, a := range ctrl.Actions {
			if _, dup := c.out.actionByName[a.Name]; dup {
				return c.errf(a.Pos, "duplicate action %s", a.Name)
			}
			ir := &Action{Name: a.Name, Annos: a.Annos}
			for i, p := range a.Params {
				if p.Direction != "" {
					return c.errf(p.Pos, "action %s: only directionless (control-plane) parameters are supported", a.Name)
				}
				w, err := c.widthOf(p.Type)
				if err != nil {
					return err
				}
				ap := ActionParam{Index: i + 1, Name: p.Name, Width: w}
				if ref, ok := p.Annos.Find("refers_to"); ok {
					r, err := parseRefersTo(ref)
					if err != nil {
						return c.errf(p.Pos, "action %s param %s: %v", a.Name, p.Name, err)
					}
					ap.RefersTo = &r
				}
				ir.Params = append(ir.Params, ap)
			}
			c.registerAction(ir)

		}
		for _, t := range ctrl.Tables {
			if _, dup := c.out.tableByName[t.Name]; dup {
				return c.errf(t.Pos, "duplicate table %s", t.Name)
			}
			ir := &Table{Name: t.Name, Annos: t.Annos}
			c.out.Tables = append(c.out.Tables, ir)
			c.out.tableByName[t.Name] = ir
			allTables = append(allTables, t)
		}
	}

	// Compile action bodies.
	for _, ctrl := range c.src.Controls {
		for _, a := range ctrl.Actions {
			ir := c.out.actionByName[a.Name]
			env := &scope{c: c, action: ir}
			body, err := c.compileBlock(a.Body, env, false)
			if err != nil {
				return err
			}
			ir.Body = body
		}
	}

	// Compile tables.
	for _, t := range allTables {
		if err := c.compileTable(t); err != nil {
			return err
		}
	}

	// Validate refers_to targets now that all tables exist.
	if err := c.checkReferences(); err != nil {
		return err
	}

	// Compile apply blocks.
	for _, ctrl := range c.src.Controls {
		env := &scope{c: c}
		body, err := c.compileBlock(ctrl.Apply, env, true)
		if err != nil {
			return err
		}
		c.out.Controls = append(c.out.Controls, &Control{Name: ctrl.Name, Body: body})
	}

	// Stable IDs. P4Runtime convention: actions live in the 0x01 prefix,
	// tables in the 0x02 prefix.
	for i, a := range c.out.Actions {
		a.ID = 0x01000001 + uint32(i)
	}
	for i, t := range c.out.Tables {
		t.ID = 0x02000001 + uint32(i)
	}
	return nil
}

func (c *compiler) registerAction(a *Action) {
	c.out.Actions = append(c.out.Actions, a)
	c.out.actionByName[a.Name] = a
}

func (c *compiler) addField(f *Field) *Field {
	f.ID = len(c.out.Fields)
	c.out.Fields = append(c.out.Fields, f)
	c.out.fieldByName[f.Name] = f
	return f
}

// injectStandardMetadata declares the built-in standard_metadata_t.
func (c *compiler) injectStandardMetadata() {
	c.structTypes["standard_metadata_t"] = &ast.Struct{
		Name: "standard_metadata_t",
		Fields: []ast.Field{
			{Name: "ingress_port", Type: ast.Type{Name: "bit", Width: PortWidth}},
			{Name: "egress_spec", Type: ast.Type{Name: "bit", Width: PortWidth}},
			{Name: "egress_port", Type: ast.Type{Name: "bit", Width: PortWidth}},
		},
	}
}

// aliasStandardMetadata makes the canonical standard metadata names resolve
// even when the program declares the parameter under a different name.
func (c *compiler) aliasStandardMetadata(paramTypes map[string]string) {
	for name, typ := range paramTypes {
		if typ != "standard_metadata_t" || name == "standard_metadata" {
			continue
		}
		for _, suffix := range []string{"ingress_port", "egress_spec", "egress_port"} {
			if f, ok := c.out.fieldByName[name+"."+suffix]; ok {
				c.out.fieldByName["standard_metadata."+suffix] = f
			}
		}
	}
}

func (c *compiler) widthOf(t ast.Type) (int, error) {
	switch {
	case t.IsBits():
		return t.Width, nil
	case t.Name == "bool":
		return 1, nil
	default:
		if w, ok := c.typeWidths[t.Name]; ok {
			return w, nil
		}
		return 0, c.errf(t.Pos, "type %s is not a bit type", t.Name)
	}
}

// flattenStruct registers all leaf fields of a struct parameter.
func (c *compiler) flattenStruct(prefix string, st *ast.Struct) error {
	for _, f := range st.Fields {
		path := prefix + "." + f.Name
		if _, dup := c.out.fieldByName[path]; dup {
			return c.errf(f.Pos, "duplicate field path %s", path)
		}
		if f.Type.IsBits() || f.Type.Name == "bool" {
			w, err := c.widthOf(f.Type)
			if err != nil {
				return err
			}
			c.addField(&Field{Name: path, Width: w})
			continue
		}
		if h, ok := c.headerTypes[f.Type.Name]; ok {
			if len(c.out.HeaderInstances) == 0 {
				c.out.headersPrefix, _, _ = strings.Cut(path, ".")
			}
			c.out.HeaderInstances = append(c.out.HeaderInstances, HeaderInstance{Path: path, TypeName: f.Type.Name})
			c.addField(&Field{Name: path + ".$valid", Width: 1, IsValidity: true, Header: path})
			for _, hf := range h.Fields {
				w, err := c.widthOf(hf.Type)
				if err != nil {
					return err
				}
				c.addField(&Field{Name: path + "." + hf.Name, Width: w, Header: path})
			}
			continue
		}
		if s, ok := c.structTypes[f.Type.Name]; ok {
			if err := c.flattenStruct(path, s); err != nil {
				return err
			}
			continue
		}
		if w, ok := c.typeWidths[f.Type.Name]; ok {
			c.addField(&Field{Name: path, Width: w})
			continue
		}
		return c.errf(f.Pos, "unknown type %s for field %s", f.Type.Name, path)
	}
	return nil
}

func parseRefersTo(a ast.Annotation) (Reference, error) {
	// Body is "table , field" as tokens.
	var parts []string
	for _, t := range a.Body {
		if t.Kind == token.Ident {
			parts = append(parts, t.Text)
		}
	}
	if len(parts) != 2 {
		return Reference{}, fmt.Errorf("@refers_to expects (table, field)")
	}
	return Reference{Table: parts[0], Field: parts[1]}, nil
}

func (c *compiler) compileTable(t *ast.Table) error {
	ir := c.out.tableByName[t.Name]
	for i, k := range t.Keys {
		f, err := c.keyField(k.Expr)
		if err != nil {
			return err
		}
		name := f.Name
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			name = name[i+1:]
		}
		if name == "$valid" {
			// e.g. headers.ipv4.$valid → is_ipv4_valid
			segs := strings.Split(f.Name, ".")
			name = "is_" + segs[len(segs)-2] + "_valid"
		}
		if a, ok := k.Annos.Find("name"); ok {
			if s, ok := a.StringArg(); ok {
				name = s
			}
		}
		kf := KeyField{Index: i + 1, Name: name, Field: f}
		switch k.MatchKind {
		case "exact":
			kf.Match = MatchExact
		case "lpm":
			kf.Match = MatchLPM
		case "ternary":
			kf.Match = MatchTernary
		case "optional":
			kf.Match = MatchOptional
		}
		if ref, ok := k.Annos.Find("refers_to"); ok {
			r, err := parseRefersTo(ref)
			if err != nil {
				return c.errf(k.Pos, "table %s key %s: %v", t.Name, name, err)
			}
			kf.RefersTo = &r
		}
		for _, other := range ir.Keys {
			if other.Name == kf.Name {
				return c.errf(k.Pos, "table %s: duplicate key name %s", t.Name, kf.Name)
			}
		}
		ir.Keys = append(ir.Keys, kf)
	}
	// LPM tables may have at most one lpm key.
	lpmCount := 0
	for _, k := range ir.Keys {
		if k.Match == MatchLPM {
			lpmCount++
		}
	}
	if lpmCount > 1 {
		return c.errf(t.Pos, "table %s has %d lpm keys; at most one is allowed", t.Name, lpmCount)
	}

	for _, ar := range t.Actions {
		a, ok := c.out.actionByName[ar.Name]
		if !ok {
			return c.errf(ar.Pos, "table %s references unknown action %s", t.Name, ar.Name)
		}
		ir.Actions = append(ir.Actions, a)
	}
	ir.DefaultAction = c.out.NoAction
	if t.DefaultAction != "" {
		a, ok := c.out.actionByName[t.DefaultAction]
		if !ok {
			return c.errf(t.Pos, "table %s: unknown default action %s", t.Name, t.DefaultAction)
		}
		ir.DefaultAction = a
		ir.ConstDefault = t.ConstDefault
		if len(t.DefaultArgs) != len(a.Params) {
			return c.errf(t.Pos, "table %s: default action %s takes %d args, got %d", t.Name, a.Name, len(a.Params), len(t.DefaultArgs))
		}
		for i, arg := range t.DefaultArgs {
			v, err := c.constEval(arg)
			if err != nil {
				return err
			}
			ir.DefaultActionArgs = append(ir.DefaultActionArgs, value.New(v, a.Params[i].Width))
		}
	}
	if t.Size != nil {
		v, err := c.constEval(t.Size)
		if err != nil {
			return err
		}
		ir.Size = int(v)
	} else {
		ir.Size = 1024
	}
	ir.IsSelector = t.Implementation != ""

	var restrictions []string
	for _, a := range t.Annos.FindAll("entry_restriction") {
		if s, ok := a.StringArg(); ok {
			restrictions = append(restrictions, s)
		} else {
			return c.errf(t.Pos, "table %s: @entry_restriction requires a string argument", t.Name)
		}
	}
	// Multiple annotations and ';'-separated clauses are both conjunctions
	// in the p4-constraints language.
	ir.EntryRestriction = strings.Join(restrictions, "; ")
	return nil
}

// keyField resolves a table key expression to a field: either a direct
// field reference or a header isValid() call.
func (c *compiler) keyField(e ast.Expr) (*Field, error) {
	switch x := e.(type) {
	case *ast.FieldExpr:
		f, ok := c.out.fieldByName[strings.Join(x.Path, ".")]
		if !ok {
			return nil, c.errf(x.Pos, "unknown field %s", strings.Join(x.Path, "."))
		}
		return f, nil
	case *ast.CallExpr:
		if x.Name == "isValid" && len(x.Recv) > 0 && len(x.Args) == 0 {
			name := strings.Join(x.Recv, ".") + ".$valid"
			f, ok := c.out.fieldByName[name]
			if !ok {
				return nil, c.errf(x.Pos, "unknown header %s", strings.Join(x.Recv, "."))
			}
			return f, nil
		}
		return nil, c.errf(x.Pos, "table keys must be fields or isValid() calls")
	default:
		return nil, fmt.Errorf("p4: table keys must be fields or isValid() calls")
	}
}

// constEval evaluates a compile-time constant expression.
func (c *compiler) constEval(e ast.Expr) (uint64, error) {
	switch x := e.(type) {
	case *ast.IntExpr:
		return x.Value, nil
	case *ast.IdentExpr:
		if v, ok := c.out.Consts[x.Name]; ok {
			return v, nil
		}
		return 0, c.errf(x.Pos, "%s is not a constant", x.Name)
	case *ast.BinaryExpr:
		a, err := c.constEval(x.X)
		if err != nil {
			return 0, err
		}
		b, err := c.constEval(x.Y)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case token.Plus:
			return a + b, nil
		case token.Minus:
			return a - b, nil
		case token.Shl:
			return a << b, nil
		case token.Shr:
			return a >> b, nil
		case token.Or:
			return a | b, nil
		case token.And:
			return a & b, nil
		case token.Xor:
			return a ^ b, nil
		default:
			return 0, c.errf(x.Pos, "operator %s not allowed in constant expression", x.Op)
		}
	default:
		return 0, fmt.Errorf("p4: expression is not constant")
	}
}

// checkReferences validates all @refers_to edges.
func (c *compiler) checkReferences() error {
	check := func(where string, r *Reference) error {
		if r == nil {
			return nil
		}
		t, ok := c.out.tableByName[r.Table]
		if !ok {
			return fmt.Errorf("p4: %s: @refers_to references unknown table %s", where, r.Table)
		}
		if _, ok := t.KeyByName(r.Field); !ok {
			return fmt.Errorf("p4: %s: @refers_to references unknown key %s.%s", where, r.Table, r.Field)
		}
		return nil
	}
	for _, t := range c.out.Tables {
		for _, k := range t.Keys {
			if err := check(fmt.Sprintf("table %s key %s", t.Name, k.Name), k.RefersTo); err != nil {
				return err
			}
		}
	}
	for _, a := range c.out.Actions {
		for _, p := range a.Params {
			if err := check(fmt.Sprintf("action %s param %s", a.Name, p.Name), p.RefersTo); err != nil {
				return err
			}
		}
	}
	return nil
}

// scope is the name environment for statement/expression compilation.
type scope struct {
	c      *compiler
	action *Action // nil in apply blocks
}

func (s *scope) lookupParam(name string) (int, int, bool) {
	if s.action == nil {
		return 0, 0, false
	}
	for i, p := range s.action.Params {
		if p.Name == name {
			return i, p.Width, true
		}
	}
	return 0, 0, false
}

func (c *compiler) compileBlock(b *ast.BlockStmt, env *scope, isApply bool) ([]Stmt, error) {
	var out []Stmt
	for _, st := range b.Stmts {
		compiled, err := c.compileStmt(st, env, isApply)
		if err != nil {
			return nil, err
		}
		out = append(out, compiled...)
	}
	return out, nil
}

func (c *compiler) compileStmt(st ast.Stmt, env *scope, isApply bool) ([]Stmt, error) {
	switch x := st.(type) {
	case *ast.BlockStmt:
		return c.compileBlock(x, env, isApply)
	case *ast.ExitStmt:
		return []Stmt{&Exit{}}, nil
	case *ast.ReturnStmt:
		return []Stmt{&Return{}}, nil
	case *ast.IfStmt:
		cond, err := c.compileExpr(x.Cond, env, 1)
		if err != nil {
			return nil, err
		}
		if !cond.IsBool() {
			return nil, c.errf(x.Pos, "if condition must be boolean")
		}
		then, err := c.compileBlock(x.Then, env, isApply)
		if err != nil {
			return nil, err
		}
		node := &If{Cond: *cond, Then: then}
		switch e := x.Else.(type) {
		case nil:
		case *ast.BlockStmt:
			els, err := c.compileBlock(e, env, isApply)
			if err != nil {
				return nil, err
			}
			node.Else = els
		case *ast.IfStmt:
			els, err := c.compileStmt(e, env, isApply)
			if err != nil {
				return nil, err
			}
			node.Else = els
		default:
			return nil, c.errf(x.Pos, "unsupported else statement")
		}
		return []Stmt{node}, nil
	case *ast.AssignStmt:
		var dst *Field
		switch l := x.LHS.(type) {
		case *ast.FieldExpr:
			f, ok := c.out.fieldByName[strings.Join(l.Path, ".")]
			if !ok {
				return nil, c.errf(l.Pos, "unknown field %s", strings.Join(l.Path, "."))
			}
			dst = f
		case *ast.IdentExpr:
			return nil, c.errf(l.Pos, "cannot assign to %s", l.Name)
		default:
			return nil, c.errf(x.Pos, "invalid assignment target")
		}
		rhs, err := c.compileExpr(x.RHS, env, dst.Width)
		if err != nil {
			return nil, err
		}
		if rhs.Width != dst.Width {
			return nil, c.errf(x.Pos, "width mismatch assigning %d-bit value to %d-bit field %s", rhs.Width, dst.Width, dst.Name)
		}
		return []Stmt{&Assign{Dst: dst, Src: *rhs}}, nil
	case *ast.CallStmt:
		return c.compileCallStmt(x, env, isApply)
	default:
		return nil, fmt.Errorf("p4: unsupported statement %T", st)
	}
}

func (c *compiler) compileCallStmt(x *ast.CallStmt, env *scope, isApply bool) ([]Stmt, error) {
	call := x.Call
	one := ConstExpr(1, 1)
	zero := ConstExpr(0, 1)
	fieldOf := func(name string) *Field { return c.out.fieldByName[name] }

	if len(call.Recv) > 0 {
		recv := strings.Join(call.Recv, ".")
		switch call.Name {
		case "apply":
			if !isApply {
				return nil, c.errf(call.Pos, "%s.apply() is only allowed in apply blocks", recv)
			}
			t, ok := c.out.tableByName[recv]
			if !ok {
				return nil, c.errf(call.Pos, "unknown table %s", recv)
			}
			return []Stmt{&ApplyTable{Table: t}}, nil
		case "setValid", "setInvalid":
			f, ok := c.out.fieldByName[recv+".$valid"]
			if !ok {
				return nil, c.errf(call.Pos, "unknown header %s", recv)
			}
			v := one
			if call.Name == "setInvalid" {
				v = zero
			}
			return []Stmt{&Assign{Dst: f, Src: *v}}, nil
		default:
			return nil, c.errf(call.Pos, "unsupported method %s.%s()", recv, call.Name)
		}
	}

	switch call.Name {
	case "no_op":
		return nil, nil
	case "mark_to_drop":
		return []Stmt{&Assign{Dst: fieldOf(FieldDrop), Src: *one}}, nil
	case "punt_to_cpu":
		return []Stmt{&Assign{Dst: fieldOf(FieldPunt), Src: *one}}, nil
	case "copy_to_cpu":
		return []Stmt{&Assign{Dst: fieldOf(FieldCopy), Src: *one}}, nil
	case "set_egress_port":
		if len(call.Args) != 1 {
			return nil, c.errf(call.Pos, "set_egress_port takes one argument")
		}
		port, err := c.compileExpr(call.Args[0], env, PortWidth)
		if err != nil {
			return nil, err
		}
		egress, ok := c.out.fieldByName[FieldEgressSpec]
		if !ok {
			return nil, c.errf(call.Pos, "program has no standard metadata parameter")
		}
		return []Stmt{
			&Assign{Dst: egress, Src: *port},
			&Assign{Dst: fieldOf(FieldDrop), Src: *zero},
		}, nil
	case "mirror":
		if len(call.Args) != 1 {
			return nil, c.errf(call.Pos, "mirror takes one argument")
		}
		sess, err := c.compileExpr(call.Args[0], env, PortWidth)
		if err != nil {
			return nil, err
		}
		return []Stmt{
			&Assign{Dst: fieldOf(FieldMirror), Src: *one},
			&Assign{Dst: fieldOf(FieldMirrorSession), Src: *sess},
		}, nil
	default:
		return nil, c.errf(call.Pos, "unknown primitive %s", call.Name)
	}
}

// compileExpr lowers an expression. expectedWidth (0 = unknown) is used to
// size unsuffixed integer literals.
func (c *compiler) compileExpr(e ast.Expr, env *scope, expectedWidth int) (*Expr, error) {
	switch x := e.(type) {
	case *ast.IntExpr:
		w := x.Width
		if w == 0 {
			w = expectedWidth
		}
		if w == 0 {
			w = 64
		}
		if w < 64 && x.Value >= 1<<uint(w) {
			return nil, c.errf(x.Pos, "literal %d does not fit in %d bits", x.Value, w)
		}
		return ConstExpr(x.Value, w), nil
	case *ast.BoolExpr:
		v := uint64(0)
		if x.Value {
			v = 1
		}
		return ConstExpr(v, 1), nil
	case *ast.IdentExpr:
		if idx, w, ok := env.lookupParam(x.Name); ok {
			return ParamRef(idx, w), nil
		}
		if v, ok := c.out.Consts[x.Name]; ok {
			w := expectedWidth
			if w == 0 {
				w = 64
			}
			return ConstExpr(v, w), nil
		}
		return nil, c.errf(x.Pos, "unknown identifier %s", x.Name)
	case *ast.FieldExpr:
		f, ok := c.out.fieldByName[strings.Join(x.Path, ".")]
		if !ok {
			return nil, c.errf(x.Pos, "unknown field %s", strings.Join(x.Path, "."))
		}
		return FieldRef(f), nil
	case *ast.CallExpr:
		if x.Name == "isValid" && len(x.Recv) > 0 && len(x.Args) == 0 {
			name := strings.Join(x.Recv, ".") + ".$valid"
			f, ok := c.out.fieldByName[name]
			if !ok {
				return nil, c.errf(x.Pos, "unknown header %s", strings.Join(x.Recv, "."))
			}
			return FieldRef(f), nil
		}
		return nil, c.errf(x.Pos, "unsupported call %s in expression", x.Name)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.Not:
			sub, err := c.compileExpr(x.X, env, 1)
			if err != nil {
				return nil, err
			}
			if !sub.IsBool() {
				return nil, c.errf(x.Pos, "! requires a boolean operand")
			}
			return &Expr{Op: OpNot, Width: 1, Args: []*Expr{sub}}, nil
		case token.Tilde:
			sub, err := c.compileExpr(x.X, env, expectedWidth)
			if err != nil {
				return nil, err
			}
			return &Expr{Op: OpBitNot, Width: sub.Width, Args: []*Expr{sub}}, nil
		case token.Minus:
			sub, err := c.compileExpr(x.X, env, expectedWidth)
			if err != nil {
				return nil, err
			}
			return &Expr{Op: OpSub, Width: sub.Width, Args: []*Expr{ConstExpr(0, sub.Width), sub}}, nil
		}
		return nil, c.errf(x.Pos, "unsupported unary operator")
	case *ast.TernaryExpr:
		cond, err := c.compileExpr(x.Cond, env, 1)
		if err != nil {
			return nil, err
		}
		a, err := c.compileExpr(x.X, env, expectedWidth)
		if err != nil {
			return nil, err
		}
		b, err := c.compileExpr(x.Y, env, a.Width)
		if err != nil {
			return nil, err
		}
		if a.Width != b.Width {
			return nil, fmt.Errorf("p4: ternary arms have widths %d and %d", a.Width, b.Width)
		}
		return &Expr{Op: OpMux, Width: a.Width, Args: []*Expr{cond, a, b}}, nil
	case *ast.BinaryExpr:
		return c.compileBinary(x, env, expectedWidth)
	default:
		return nil, fmt.Errorf("p4: unsupported expression %T", e)
	}
}

func (c *compiler) compileBinary(x *ast.BinaryExpr, env *scope, expectedWidth int) (*Expr, error) {
	var op Op
	boolOperands, boolResult := false, false
	switch x.Op {
	case token.Eq:
		op, boolResult = OpEq, true
	case token.Ne:
		op, boolResult = OpNe, true
	case token.Lt:
		op, boolResult = OpLt, true
	case token.Le:
		op, boolResult = OpLe, true
	case token.Gt:
		op, boolResult = OpGt, true
	case token.Ge:
		op, boolResult = OpGe, true
	case token.AndAnd:
		op, boolOperands, boolResult = OpAnd, true, true
	case token.OrOr:
		op, boolOperands, boolResult = OpOr, true, true
	case token.And:
		op = OpBitAnd
	case token.Or:
		op = OpBitOr
	case token.Xor:
		op = OpBitXor
	case token.Plus:
		op = OpAdd
	case token.Minus:
		op = OpSub
	case token.Shl:
		op = OpShl
	case token.Shr:
		op = OpShr
	default:
		return nil, c.errf(x.Pos, "unsupported binary operator %s", x.Op)
	}

	hint := expectedWidth
	if boolResult && !boolOperands {
		hint = 0 // comparisons size operands off each other
	}
	if boolOperands {
		hint = 1
	}
	a, err := c.compileExpr(x.X, env, hint)
	if err != nil {
		return nil, err
	}
	b, err := c.compileExpr(x.Y, env, a.Width)
	if err != nil {
		return nil, err
	}
	// Re-size an unsuffixed literal left operand off the right.
	if a.Op == OpConst && a.Width != b.Width {
		a = ConstExpr(a.Value, b.Width)
	}
	if op == OpShl || op == OpShr {
		// Shift amounts may have any width.
	} else if a.Width != b.Width {
		return nil, c.errf(x.Pos, "operand widths differ: %d vs %d", a.Width, b.Width)
	}
	if boolOperands && (!a.IsBool() || !b.IsBool()) {
		return nil, c.errf(x.Pos, "logical operator requires boolean operands")
	}
	w := a.Width
	if boolResult {
		w = 1
	}
	return &Expr{Op: op, Width: w, Args: []*Expr{a, b}}, nil
}

// SortedFieldNames returns all field names in sorted order (testing aid).
func (p *Program) SortedFieldNames() []string {
	names := make([]string, 0, len(p.Fields))
	for _, f := range p.Fields {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	return names
}
