// Package ir defines the typed intermediate representation of P4 models
// that SwitchV's engines (the fuzzer, the symbolic executor, and the BMv2
// reference simulator) operate on.
//
// The IR flattens all header and metadata fields into a single field space:
// every leaf field gets a small integer ID, and header validity bits are
// first-class width-1 fields named "<header>.$valid". Both concrete and
// symbolic interpretation are defined over this flat space.
package ir

import (
	"fmt"

	"switchv/internal/p4/ast"
)

// MatchKind is a table key's match kind.
type MatchKind int

// Match kinds, per the P4Runtime specification.
const (
	MatchExact MatchKind = iota
	MatchLPM
	MatchTernary
	MatchOptional
)

func (m MatchKind) String() string {
	switch m {
	case MatchExact:
		return "exact"
	case MatchLPM:
		return "lpm"
	case MatchTernary:
		return "ternary"
	case MatchOptional:
		return "optional"
	default:
		return fmt.Sprintf("MatchKind(%d)", int(m))
	}
}

// Field is a leaf field in the flattened field space.
type Field struct {
	ID    int
	Name  string // canonical dotted path, e.g. "headers.ipv4.dst_addr"
	Width int    // bits, 1..128

	// IsValidity marks the synthetic "<header>.$valid" bit.
	IsValidity bool
	// Header is the canonical path of the enclosing header instance for
	// fields that live inside a header (""
	// for metadata fields).
	Header string
}

// Program is a compiled P4 model.
type Program struct {
	Name     string
	Fields   []*Field
	Tables   []*Table
	Actions  []*Action
	Controls []*Control
	Consts   map[string]uint64

	// HeaderInstances lists header instance paths (e.g. "headers.ipv4")
	// with their declared type names, in declaration order; the reference
	// simulator uses these to map packets onto the field space.
	HeaderInstances []HeaderInstance

	headersPrefix string // see HeadersPrefix
	fieldByName   map[string]*Field
	tableByName   map[string]*Table
	actionByName  map[string]*Action

	// NoActionID is the id of the implicit NoAction.
	NoAction *Action
}

// HeaderInstance records a header-typed field of a struct parameter.
type HeaderInstance struct {
	Path     string // e.g. "headers.ipv4"
	TypeName string // e.g. "ipv4_t"
}

// FieldByName returns the field with the given canonical path.
func (p *Program) FieldByName(name string) (*Field, bool) {
	f, ok := p.fieldByName[name]
	return f, ok
}

// HeadersPrefix returns the name of the struct parameter holding the
// header instances ("headers"): the first segment of the first header
// instance's path. It is "" when the program declares no header.
func (p *Program) HeadersPrefix() string { return p.headersPrefix }

// HeaderField returns the field with the given name under the headers
// struct: HeaderField("ipv4.ttl") is "headers.ipv4.ttl" when the headers
// parameter is named headers, and HeaderField("ipv4.$valid") is the
// instance's validity bit, so it also tells whether the instance exists.
func (p *Program) HeaderField(name string) (*Field, bool) {
	if p.headersPrefix == "" {
		return nil, false
	}
	return p.FieldByName(p.headersPrefix + "." + name)
}

// TableByName returns the named table.
func (p *Program) TableByName(name string) (*Table, bool) {
	t, ok := p.tableByName[name]
	return t, ok
}

// ActionByName returns the named action.
func (p *Program) ActionByName(name string) (*Action, bool) {
	a, ok := p.actionByName[name]
	return a, ok
}

// ActionParam is a control-plane supplied action parameter.
type ActionParam struct {
	Index int // 1-based P4Runtime param id = Index
	Name  string
	Width int
	// RefersTo, if non-nil, encodes a @refers_to(table, field) annotation:
	// values of this param must match an existing entry's key field in the
	// referenced table.
	RefersTo *Reference
}

// Reference is a @refers_to(table, field) edge.
type Reference struct {
	Table string
	Field string
}

// Action is a compiled action.
type Action struct {
	ID     uint32
	Name   string
	Params []ActionParam
	Body   []Stmt
	Annos  ast.Annotations
}

// KeyField is one element of a table key.
type KeyField struct {
	Index int // 1-based P4Runtime field id = Index
	Name  string
	Field *Field
	Match MatchKind
	// RefersTo, if non-nil, encodes @refers_to on this key.
	RefersTo *Reference
}

// Table is a compiled match-action table.
type Table struct {
	ID      uint32
	Name    string
	Keys    []KeyField
	Actions []*Action
	// DefaultAction is never nil after compilation (NoAction if elided).
	DefaultAction     *Action
	DefaultActionArgs []uint64
	ConstDefault      bool
	Size              int
	// IsSelector marks tables with implementation = action_selector,
	// programmed with one-shot action sets.
	IsSelector bool
	// EntryRestriction is the raw @entry_restriction constraint source
	// (possibly several, joined by &&), or "".
	EntryRestriction string
	Annos            ast.Annotations
}

// KeyByName returns the key field with the given name.
func (t *Table) KeyByName(name string) (KeyField, bool) {
	for _, k := range t.Keys {
		if k.Name == name {
			return k, true
		}
	}
	return KeyField{}, false
}

// HasAction reports whether the action is permitted in this table.
func (t *Table) HasAction(a *Action) bool {
	for _, x := range t.Actions {
		if x == a {
			return true
		}
	}
	return false
}

// Control is a compiled control block (pipeline stage).
type Control struct {
	Name string
	Body []Stmt
}

// Statements.

// Stmt is an IR statement.
type Stmt interface{ irStmt() }

// Assign writes the value of Src into Dst.
type Assign struct {
	Dst *Field
	Src Expr
}

// ApplyTable applies a match-action table.
type ApplyTable struct {
	Table *Table
}

// If branches on a boolean expression.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// Exit terminates the entire pipeline.
type Exit struct{}

// Return terminates the current control block.
type Return struct{}

func (*Assign) irStmt()     {}
func (*ApplyTable) irStmt() {}
func (*If) irStmt()         {}
func (*Exit) irStmt()       {}
func (*Return) irStmt()     {}

// Synthetic built-in field names. Primitive calls in P4 source compile to
// assignments over these fields, so both the concrete and symbolic
// evaluators only ever see assignments, table applies and branches.
const (
	// FieldDrop is set to 1 by mark_to_drop(); a packet with it set (and
	// not punted) is dropped. set_egress_port clears it.
	FieldDrop = "$drop"
	// FieldPunt is set to 1 by punt_to_cpu(): the packet goes to the
	// controller instead of being forwarded.
	FieldPunt = "$punt"
	// FieldCopy is set to 1 by copy_to_cpu(): a copy goes to the
	// controller and forwarding continues.
	FieldCopy = "$copy"
	// FieldMirror and FieldMirrorSession are set by mirror(session).
	FieldMirror        = "$mirror"
	FieldMirrorSession = "$mirror_session"
	// FieldIngressPort and FieldEgressSpec are the standard metadata
	// ports; they also exist under the program's declared standard
	// metadata parameter name as aliases.
	FieldIngressPort = "standard_metadata.ingress_port"
	FieldEgressSpec  = "standard_metadata.egress_spec"
)

// PortWidth is the bit width of port number fields.
const PortWidth = 16

// Expressions.

// Op is an expression operator.
type Op int

// Expression operators. Comparison and logical operators produce width-1
// boolean values; arithmetic and bitwise operators preserve their operand
// width.
const (
	OpConst Op = iota
	OpField
	OpParam
	OpEq
	OpNe
	OpLt // unsigned
	OpLe
	OpGt
	OpGe
	OpAnd // logical
	OpOr
	OpNot
	OpBitAnd
	OpBitOr
	OpBitXor
	OpBitNot
	OpAdd
	OpSub
	OpShl
	OpShr
	OpMux // Args[0] ? Args[1] : Args[2]
)

// Expr is an IR expression tree node.
type Expr struct {
	Op    Op
	Width int // result width in bits; 1 for booleans

	// OpConst:
	Value uint64
	// OpField:
	Field *Field
	// OpParam: action parameter index (0-based into Action.Params).
	Param int
	// Operands for the remaining ops.
	Args []*Expr
}

// ConstExpr returns a constant expression.
func ConstExpr(v uint64, width int) *Expr {
	return &Expr{Op: OpConst, Width: width, Value: v}
}

// FieldRef returns a field reference expression.
func FieldRef(f *Field) *Expr {
	return &Expr{Op: OpField, Width: f.Width, Field: f}
}

// ParamRef returns an action parameter reference.
func ParamRef(idx, width int) *Expr {
	return &Expr{Op: OpParam, Width: width, Param: idx}
}

// IsBool reports whether the expression is boolean-valued (width 1 and
// produced by a comparison/logical operator, a validity bit, or a 1-bit
// field).
func (e *Expr) IsBool() bool { return e.Width == 1 }

// MaxBits is the maximum supported field width.
const MaxBits = 128
