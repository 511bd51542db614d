package smt

import "switchv/internal/p4/ir"

// LowerExpr lowers an IR expression to a bitvector term over state
// (field ID -> the field's current term). param lowers an action
// parameter, the one operand whose meaning depends on the caller:
// p4-symbolic binds the invoked entry's arguments, the preflight's
// reachability traversal havocs it. Operands are lowered left to
// right, so a program always interns the same terms in the same order.
func LowerExpr(b *Builder, state []*Term, e *ir.Expr, param func(*ir.Expr) *Term) *Term {
	return (&lowering{b, state, param}).expr(e)
}

// LowerBool lowers an IR expression to a boolean term; see LowerExpr.
func LowerBool(b *Builder, state []*Term, e *ir.Expr, param func(*ir.Expr) *Term) *Term {
	return (&lowering{b, state, param}).bool(e)
}

type lowering struct {
	b     *Builder
	state []*Term
	param func(*ir.Expr) *Term
}

func (l *lowering) expr(e *ir.Expr) *Term {
	b := l.b
	switch e.Op {
	case ir.OpConst:
		return b.ConstUint(e.Value, e.Width)
	case ir.OpField:
		return l.state[e.Field.ID]
	case ir.OpParam:
		return l.param(e)
	case ir.OpMux:
		return b.Ite(l.bool(e.Args[0]), l.expr(e.Args[1]), l.expr(e.Args[2]))
	case ir.OpBitNot:
		return b.BVNot(l.expr(e.Args[0]))
	case ir.OpBitAnd:
		return b.BVAnd(l.expr(e.Args[0]), l.expr(e.Args[1]))
	case ir.OpBitOr:
		return b.BVOr(l.expr(e.Args[0]), l.expr(e.Args[1]))
	case ir.OpBitXor:
		return b.BVXor(l.expr(e.Args[0]), l.expr(e.Args[1]))
	case ir.OpAdd:
		return b.BVAdd(l.expr(e.Args[0]), l.expr(e.Args[1]))
	case ir.OpSub:
		return b.BVSub(l.expr(e.Args[0]), l.expr(e.Args[1]))
	case ir.OpShl, ir.OpShr:
		amount := e.Args[1]
		if amount.Op != ir.OpConst {
			panic("smt: only constant shift amounts are supported")
		}
		x := l.expr(e.Args[0])
		if e.Op == ir.OpShl {
			return b.BVShlConst(x, int(amount.Value))
		}
		return b.BVShrConst(x, int(amount.Value))
	default:
		// Boolean-valued operators used in a value position: reify as a
		// 1-bit vector.
		cond := l.bool(e)
		return b.Ite(cond, b.ConstUint(1, 1), b.ConstUint(0, 1))
	}
}

func (l *lowering) bool(e *ir.Expr) *Term {
	b := l.b
	switch e.Op {
	case ir.OpEq:
		return b.Eq(l.expr(e.Args[0]), l.expr(e.Args[1]))
	case ir.OpNe:
		return b.Ne(l.expr(e.Args[0]), l.expr(e.Args[1]))
	case ir.OpLt:
		return b.Ult(l.expr(e.Args[0]), l.expr(e.Args[1]))
	case ir.OpLe:
		return b.Ule(l.expr(e.Args[0]), l.expr(e.Args[1]))
	case ir.OpGt:
		return b.Ult(l.expr(e.Args[1]), l.expr(e.Args[0]))
	case ir.OpGe:
		return b.Ule(l.expr(e.Args[1]), l.expr(e.Args[0]))
	case ir.OpAnd:
		return b.And(l.bool(e.Args[0]), l.bool(e.Args[1]))
	case ir.OpOr:
		return b.Or(l.bool(e.Args[0]), l.bool(e.Args[1]))
	case ir.OpNot:
		return b.Not(l.bool(e.Args[0]))
	case ir.OpMux:
		return b.Ite(l.bool(e.Args[0]), l.bool(e.Args[1]), l.bool(e.Args[2]))
	default:
		// A 1-bit value used as a condition.
		v := l.expr(e)
		return b.Ne(v, b.ConstUint(0, v.Width()))
	}
}
