// Package smt implements a quantifier-free bitvector (QF_BV) SMT solver
// by Tseitin bit-blasting onto the CDCL SAT solver in internal/sat. This
// is the fragment p4-symbolic needs (§5 "Decidability": quantifier-free
// bitvectors and equality are decidable), standing in for Z3.
//
// Terms are immutable and hash-consed within a Builder, so structurally
// equal terms are pointer-equal and bit-blasting is memoized.
package smt

import (
	"fmt"

	"switchv/internal/p4/value"
)

// Op is a term operator.
type Op int

// Term operators. Boolean-sorted terms have Width() == 0.
const (
	OpBoolConst Op = iota
	OpBVConst
	OpBVVar
	OpNot
	OpAnd
	OpOr
	OpImplies
	OpIff
	OpIte     // bool ? bv : bv
	OpBoolIte // bool ? bool : bool
	OpEq      // bv == bv -> bool
	OpUlt     // unsigned < -> bool
	OpUle
	OpBVAnd
	OpBVOr
	OpBVXor
	OpBVNot
	OpBVAdd
	OpBVSub
	OpBVShl // constant shift amount
	OpBVShr
	OpBVZext  // zero-extend to a wider width
	OpBVTrunc // truncate to the low bits
)

// Term is an immutable bitvector or boolean expression.
type Term struct {
	op    Op
	width int // 0 for booleans
	kids  []*Term
	val   value.V // OpBVConst
	b     bool    // OpBoolConst
	name  string  // OpBVVar
	id    int     // unique within builder
}

// Op returns the operator.
func (t *Term) Op() Op { return t.op }

// Width returns the bit width (0 for boolean terms).
func (t *Term) Width() int { return t.width }

// IsBool reports whether the term is boolean-sorted.
func (t *Term) IsBool() bool { return t.width == 0 }

// Name returns the variable name for OpBVVar terms.
func (t *Term) Name() string { return t.name }

// Const returns the constant value of an OpBVConst term.
func (t *Term) Const() value.V { return t.val }

// Kid returns the i-th operand.
func (t *Term) Kid(i int) *Term { return t.kids[i] }

func (t *Term) String() string {
	switch t.op {
	case OpBoolConst:
		return fmt.Sprintf("%v", t.b)
	case OpBVConst:
		return t.val.String()
	case OpBVVar:
		return t.name
	case OpNot:
		return "(not " + t.kids[0].String() + ")"
	case OpAnd:
		return "(and " + t.kids[0].String() + " " + t.kids[1].String() + ")"
	case OpOr:
		return "(or " + t.kids[0].String() + " " + t.kids[1].String() + ")"
	case OpImplies:
		return "(=> " + t.kids[0].String() + " " + t.kids[1].String() + ")"
	case OpIff:
		return "(= " + t.kids[0].String() + " " + t.kids[1].String() + ")"
	case OpEq:
		return "(= " + t.kids[0].String() + " " + t.kids[1].String() + ")"
	case OpUlt:
		return "(bvult " + t.kids[0].String() + " " + t.kids[1].String() + ")"
	case OpUle:
		return "(bvule " + t.kids[0].String() + " " + t.kids[1].String() + ")"
	case OpIte, OpBoolIte:
		return "(ite " + t.kids[0].String() + " " + t.kids[1].String() + " " + t.kids[2].String() + ")"
	case OpBVAnd:
		return "(bvand " + t.kids[0].String() + " " + t.kids[1].String() + ")"
	case OpBVOr:
		return "(bvor " + t.kids[0].String() + " " + t.kids[1].String() + ")"
	case OpBVXor:
		return "(bvxor " + t.kids[0].String() + " " + t.kids[1].String() + ")"
	case OpBVNot:
		return "(bvnot " + t.kids[0].String() + ")"
	case OpBVAdd:
		return "(bvadd " + t.kids[0].String() + " " + t.kids[1].String() + ")"
	case OpBVSub:
		return "(bvsub " + t.kids[0].String() + " " + t.kids[1].String() + ")"
	case OpBVShl:
		return "(bvshl " + t.kids[0].String() + " " + t.kids[1].String() + ")"
	case OpBVShr:
		return "(bvlshr " + t.kids[0].String() + " " + t.kids[1].String() + ")"
	default:
		return fmt.Sprintf("Op(%d)", int(t.op))
	}
}

// Builder hash-conses terms and applies light constant folding.
type Builder struct {
	nextID int
	cache  map[termKey]*Term
	trueT  *Term
	falseT *Term
}

type termKey struct {
	op    Op
	width int
	k0    int
	k1    int
	k2    int
	hi    uint64
	lo    uint64
	name  string
}

// NewBuilder returns an empty term builder.
func NewBuilder() *Builder {
	b := &Builder{cache: map[termKey]*Term{}}
	b.trueT = b.intern(&Term{op: OpBoolConst, b: true})
	b.falseT = b.intern(&Term{op: OpBoolConst, b: false})
	return b
}

func (b *Builder) key(t *Term) termKey {
	k := termKey{op: t.op, width: t.width, k0: -1, k1: -1, k2: -1, name: t.name}
	for i, kid := range t.kids {
		switch i {
		case 0:
			k.k0 = kid.id
		case 1:
			k.k1 = kid.id
		case 2:
			k.k2 = kid.id
		}
	}
	if t.op == OpBVConst {
		k.hi, k.lo = t.val.Hi, t.val.Lo
	}
	if t.op == OpBoolConst && t.b {
		k.lo = 1
	}
	return k
}

func (b *Builder) intern(t *Term) *Term {
	k := b.key(t)
	if got, ok := b.cache[k]; ok {
		return got
	}
	b.nextID++
	t.id = b.nextID
	b.cache[k] = t
	return t
}

// True returns the boolean constant true.
func (b *Builder) True() *Term { return b.trueT }

// False returns the boolean constant false.
func (b *Builder) False() *Term { return b.falseT }

// Bool returns a boolean constant.
func (b *Builder) Bool(v bool) *Term {
	if v {
		return b.trueT
	}
	return b.falseT
}

// BV returns a fresh-or-interned bitvector variable of the given width.
func (b *Builder) BV(name string, width int) *Term {
	if width <= 0 || width > 128 {
		panic(fmt.Sprintf("smt: bad width %d", width))
	}
	return b.intern(&Term{op: OpBVVar, width: width, name: name})
}

// Const returns a bitvector constant.
func (b *Builder) Const(v value.V) *Term {
	if v.Width <= 0 {
		panic("smt: constant with zero width")
	}
	return b.intern(&Term{op: OpBVConst, width: v.Width, val: v})
}

// ConstUint is Const for small values.
func (b *Builder) ConstUint(v uint64, width int) *Term {
	return b.Const(value.New(v, width))
}

func (b *Builder) checkBV2(op string, x, y *Term) {
	if x.IsBool() || y.IsBool() || x.width != y.width {
		panic(fmt.Sprintf("smt: %s operand sorts (%d, %d)", op, x.width, y.width))
	}
}

// Not returns boolean negation, folding constants and double negation.
func (b *Builder) Not(x *Term) *Term {
	if !x.IsBool() {
		panic("smt: not on non-boolean")
	}
	switch {
	case x == b.trueT:
		return b.falseT
	case x == b.falseT:
		return b.trueT
	case x.op == OpNot:
		return x.kids[0]
	}
	return b.intern(&Term{op: OpNot, kids: []*Term{x}})
}

// And returns boolean conjunction with unit folding.
func (b *Builder) And(x, y *Term) *Term {
	if !x.IsBool() || !y.IsBool() {
		panic("smt: and on non-boolean")
	}
	switch {
	case x == b.falseT || y == b.falseT:
		return b.falseT
	case x == b.trueT:
		return y
	case y == b.trueT:
		return x
	case x == y:
		return x
	}
	return b.intern(&Term{op: OpAnd, kids: []*Term{x, y}})
}

// Or returns boolean disjunction with unit folding.
func (b *Builder) Or(x, y *Term) *Term {
	if !x.IsBool() || !y.IsBool() {
		panic("smt: or on non-boolean")
	}
	switch {
	case x == b.trueT || y == b.trueT:
		return b.trueT
	case x == b.falseT:
		return y
	case y == b.falseT:
		return x
	case x == y:
		return x
	}
	return b.intern(&Term{op: OpOr, kids: []*Term{x, y}})
}

// Implies returns x -> y.
func (b *Builder) Implies(x, y *Term) *Term { return b.Or(b.Not(x), y) }

// Iff returns x <-> y.
func (b *Builder) Iff(x, y *Term) *Term {
	if !x.IsBool() || !y.IsBool() {
		panic("smt: iff on non-boolean")
	}
	switch {
	case x == y:
		return b.trueT
	case x == b.trueT:
		return y
	case y == b.trueT:
		return x
	case x == b.falseT:
		return b.Not(y)
	case y == b.falseT:
		return b.Not(x)
	}
	return b.intern(&Term{op: OpIff, kids: []*Term{x, y}})
}

// Eq returns bitvector equality as a boolean.
func (b *Builder) Eq(x, y *Term) *Term {
	b.checkBV2("eq", x, y)
	if x == y {
		return b.trueT
	}
	if x.op == OpBVConst && y.op == OpBVConst {
		return b.Bool(x.val.Equal(y.val))
	}
	if y.id < x.id {
		x, y = y, x
	}
	return b.intern(&Term{op: OpEq, kids: []*Term{x, y}})
}

// Ne returns bitvector disequality.
func (b *Builder) Ne(x, y *Term) *Term { return b.Not(b.Eq(x, y)) }

// Ult returns unsigned x < y.
func (b *Builder) Ult(x, y *Term) *Term {
	b.checkBV2("ult", x, y)
	if x == y {
		return b.falseT
	}
	if x.op == OpBVConst && y.op == OpBVConst {
		return b.Bool(x.val.Less(y.val))
	}
	return b.intern(&Term{op: OpUlt, kids: []*Term{x, y}})
}

// Ule returns unsigned x <= y.
func (b *Builder) Ule(x, y *Term) *Term {
	b.checkBV2("ule", x, y)
	if x == y {
		return b.trueT
	}
	if x.op == OpBVConst && y.op == OpBVConst {
		return b.Bool(!y.val.Less(x.val))
	}
	return b.intern(&Term{op: OpUle, kids: []*Term{x, y}})
}

// Ite returns the bitvector conditional.
func (b *Builder) Ite(cond, x, y *Term) *Term {
	if !cond.IsBool() {
		panic("smt: ite condition is not boolean")
	}
	if x.IsBool() != y.IsBool() || (!x.IsBool() && x.width != y.width) {
		panic("smt: ite arm sorts differ")
	}
	switch {
	case cond == b.trueT:
		return x
	case cond == b.falseT:
		return y
	case x == y:
		return x
	}
	if x.IsBool() {
		return b.intern(&Term{op: OpBoolIte, kids: []*Term{cond, x, y}})
	}
	return b.intern(&Term{op: OpIte, width: x.width, kids: []*Term{cond, x, y}})
}

func (b *Builder) bvBinary(op Op, x, y *Term, fold func(a, c value.V) value.V) *Term {
	if x.op == OpBVConst && y.op == OpBVConst {
		return b.Const(fold(x.val, y.val))
	}
	return b.intern(&Term{op: op, width: x.width, kids: []*Term{x, y}})
}

// BVAnd returns bitwise and.
func (b *Builder) BVAnd(x, y *Term) *Term {
	b.checkBV2("bvand", x, y)
	return b.bvBinary(OpBVAnd, x, y, value.V.And)
}

// BVOr returns bitwise or.
func (b *Builder) BVOr(x, y *Term) *Term {
	b.checkBV2("bvor", x, y)
	return b.bvBinary(OpBVOr, x, y, value.V.Or)
}

// BVXor returns bitwise xor.
func (b *Builder) BVXor(x, y *Term) *Term {
	b.checkBV2("bvxor", x, y)
	return b.bvBinary(OpBVXor, x, y, value.V.Xor)
}

// BVNot returns bitwise complement.
func (b *Builder) BVNot(x *Term) *Term {
	if x.IsBool() {
		panic("smt: bvnot on boolean")
	}
	if x.op == OpBVConst {
		return b.Const(x.val.Not())
	}
	return b.intern(&Term{op: OpBVNot, width: x.width, kids: []*Term{x}})
}

// BVAdd returns modular addition.
func (b *Builder) BVAdd(x, y *Term) *Term {
	b.checkBV2("bvadd", x, y)
	return b.bvBinary(OpBVAdd, x, y, value.V.Add)
}

// BVSub returns modular subtraction.
func (b *Builder) BVSub(x, y *Term) *Term {
	b.checkBV2("bvsub", x, y)
	return b.bvBinary(OpBVSub, x, y, value.V.Sub)
}

// BVShlConst returns x << n for a constant shift.
func (b *Builder) BVShlConst(x *Term, n int) *Term {
	if x.IsBool() {
		panic("smt: shift on boolean")
	}
	if n == 0 {
		return x
	}
	if x.op == OpBVConst {
		return b.Const(x.val.Shl(n))
	}
	amount := b.ConstUint(uint64(n), x.width)
	return b.intern(&Term{op: OpBVShl, width: x.width, kids: []*Term{x, amount}})
}

// BVShrConst returns x >> n (logical) for a constant shift.
func (b *Builder) BVShrConst(x *Term, n int) *Term {
	if x.IsBool() {
		panic("smt: shift on boolean")
	}
	if n == 0 {
		return x
	}
	if x.op == OpBVConst {
		return b.Const(x.val.Shr(n))
	}
	amount := b.ConstUint(uint64(n), x.width)
	return b.intern(&Term{op: OpBVShr, width: x.width, kids: []*Term{x, amount}})
}

// ZeroExtend widens x to width w with zero bits.
func (b *Builder) ZeroExtend(x *Term, w int) *Term {
	if x.IsBool() {
		panic("smt: zero-extend on boolean")
	}
	if w < x.width {
		panic("smt: zero-extend to narrower width")
	}
	if w == x.width {
		return x
	}
	if x.op == OpBVConst {
		return b.Const(x.val.WithWidth(w))
	}
	return b.intern(&Term{op: OpBVZext, width: w, kids: []*Term{x}})
}

// Truncate keeps the low w bits of x.
func (b *Builder) Truncate(x *Term, w int) *Term {
	if x.IsBool() {
		panic("smt: truncate on boolean")
	}
	if w > x.width {
		panic("smt: truncate to wider width")
	}
	if w == x.width {
		return x
	}
	if x.op == OpBVConst {
		return b.Const(x.val.WithWidth(w))
	}
	return b.intern(&Term{op: OpBVTrunc, width: w, kids: []*Term{x}})
}

// Resize coerces x to width w: zero-extending or truncating as needed
// (the P4 assignment coercion semantics).
func (b *Builder) Resize(x *Term, w int) *Term {
	if w >= x.width {
		return b.ZeroExtend(x, w)
	}
	return b.Truncate(x, w)
}

// NumTerms returns the number of distinct terms built (benchmark metric).
func (b *Builder) NumTerms() int { return b.nextID }
