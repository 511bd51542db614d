// Concrete evaluation of terms under a SAT model. After the solver finds
// a model for one coverage goal, Eval lets the caller check — without any
// further SMT work — which other goal conditions that model already
// satisfies. The symbolic engine uses this for greedy test-suite
// reduction: on typical programs most goals fall to a handful of models,
// so almost all per-goal solver calls are skipped.
package smt

import (
	"fmt"

	"switchv/internal/p4/value"
)

// Model is a concrete assignment to the bitvector variables of a
// formula, captured from the solver after a Sat result. Variables the
// solver never saw are unconstrained by the formula and read as zero,
// matching ValueBV. A Model stays valid after further Check calls.
//
// Evaluation results are memoized over the hash-consed term DAG in the
// evaluation scratch of the solver the model came from, so repeated Eval
// calls against one model share work. Every model of a solver
// (Solver.Model, Solver.NewModel and their WithVars copies) shares that
// one scratch: evaluating a model takes the scratch over and drops the
// previous model's memo. No two models of one solver may therefore be
// evaluated concurrently, and a Model is not safe for concurrent use.
type Model struct {
	vars map[*Term]value.V
	sc   *evalScratch
}

// evalScratch memoizes evaluations under one model at a time in a slice
// indexed by term ID. A slot is live when it carries the scratch's
// current epoch and records the same term (a term of another builder
// may share the ID, and then misses instead of aliasing). A model takes
// the scratch over by bumping the epoch, which invalidates every slot
// at once. Holding the owner keeps it alive, so a later model cannot be
// allocated at its address and inherit its memo.
type evalScratch struct {
	b     *Builder // sizes the slots to the solver's term count
	owner *Model
	epoch uint32
	slots []evalSlot
}

type evalSlot struct {
	epoch uint32
	b     bool // boolean terms
	t     *Term
	v     value.V // bitvector terms
}

// takeOver makes m the scratch's owner, invalidating the memo of any
// other model.
func (m *Model) takeOver() *evalScratch {
	sc := m.sc
	if sc.owner != m {
		sc.owner = m
		sc.epoch++
		if sc.epoch == 0 {
			// Wrapped: stale stamps could equal the new epoch.
			clear(sc.slots)
			sc.epoch = 1
		}
	}
	return sc
}

// lookup returns t's live slot, or nil.
func (sc *evalScratch) lookup(t *Term) *evalSlot {
	if t.id < len(sc.slots) {
		if e := &sc.slots[t.id]; e.epoch == sc.epoch && e.t == t {
			return e
		}
	}
	return nil
}

// store claims t's slot for the current epoch, growing the slots to the
// builder's term count (or past t's ID for a term of another builder).
func (sc *evalScratch) store(t *Term) *evalSlot {
	if t.id >= len(sc.slots) {
		n := max(t.id+1, sc.b.nextID+1, len(sc.slots)+len(sc.slots)/4)
		sc.slots = append(sc.slots, make([]evalSlot, n-len(sc.slots))...)
	}
	e := &sc.slots[t.id]
	e.epoch, e.t = sc.epoch, t
	return e
}

// NewModel builds a model of this solver from explicit variable values;
// every unlisted variable reads as zero, like an unconstrained solver
// variable. Used for canonical background models (witness synthesis,
// slice completion) that exist independently of any Check call. The
// model shares the solver's evaluation scratch (see Model).
func (s *Solver) NewModel(vars map[*Term]value.V) *Model {
	m := &Model{vars: make(map[*Term]value.V, len(vars)), sc: s.eval}
	for t, v := range vars {
		if t.op != OpBVVar {
			panic("smt: NewModel on non-variable term")
		}
		if v.Width != t.width {
			panic(fmt.Sprintf("smt: NewModel width mismatch: %d vs %d", v.Width, t.width))
		}
		m.vars[t] = v
	}
	return m
}

// Model captures the current model. It must only be called after a Sat
// result from Check, CheckAssuming or CheckSliced. After a sliced check
// the model is transparently completed: variables outside the slice
// take their background values (see slice.go), so the result is a
// genuine model of the full asserted formula.
func (s *Solver) Model() *Model {
	vars := make(map[*Term]value.V)
	if s.sliced {
		for t, v := range s.bg.vars {
			if !s.slice.has(t) {
				vars[t] = v
			}
		}
	}
	for _, t := range s.vars {
		if s.sliced && !s.slice.has(t) {
			continue
		}
		v := value.Zero(t.width)
		for i, l := range s.bvBits[t] {
			if s.sat.LitValue(l) {
				v = v.SetBit(i, true)
			}
		}
		vars[t] = v
	}
	return &Model{vars: vars, sc: s.eval}
}

// WithVars returns a copy of the model with the given variable values
// overriding the captured ones. The copy shares the model's evaluation
// scratch but not its memo, so patched variables take effect.
func (m *Model) WithVars(patch map[*Term]value.V) *Model {
	vars := make(map[*Term]value.V, len(m.vars)+len(patch))
	for t, v := range m.vars {
		vars[t] = v
	}
	for t, v := range patch {
		if t.op != OpBVVar {
			panic("smt: Model.WithVars on non-variable term")
		}
		if v.Width != t.width {
			panic(fmt.Sprintf("smt: Model.WithVars width mismatch: %d vs %d", v.Width, t.width))
		}
		vars[t] = v
	}
	return &Model{vars: vars, sc: m.sc}
}

// Var returns the model value of a bitvector variable (zero if the
// variable never appeared in the formula).
func (m *Model) Var(t *Term) value.V {
	if t.op != OpBVVar {
		panic("smt: Model.Var on non-variable term")
	}
	if v, ok := m.vars[t]; ok {
		return v
	}
	return value.Zero(t.width)
}

// Eval evaluates a term under a model. Boolean terms evaluate to a 1-bit
// vector (1 = true); use EvalBool for the boolean directly.
func Eval(m *Model, t *Term) value.V {
	sc := m.takeOver()
	if t.IsBool() {
		if m.evalBool(sc, t) {
			return value.New(1, 1)
		}
		return value.Zero(1)
	}
	return m.evalBV(sc, t)
}

// EvalBool evaluates a boolean term under a model.
func EvalBool(m *Model, t *Term) bool {
	if !t.IsBool() {
		panic("smt: EvalBool on bitvector term")
	}
	return m.evalBool(m.takeOver(), t)
}

func (m *Model) evalBool(sc *evalScratch, t *Term) bool {
	if e := sc.lookup(t); e != nil {
		return e.b
	}
	var v bool
	switch t.op {
	case OpBoolConst:
		v = t.b
	case OpNot:
		v = !m.evalBool(sc, t.kids[0])
	case OpAnd:
		v = m.evalBool(sc, t.kids[0]) && m.evalBool(sc, t.kids[1])
	case OpOr:
		v = m.evalBool(sc, t.kids[0]) || m.evalBool(sc, t.kids[1])
	case OpImplies:
		v = !m.evalBool(sc, t.kids[0]) || m.evalBool(sc, t.kids[1])
	case OpIff:
		v = m.evalBool(sc, t.kids[0]) == m.evalBool(sc, t.kids[1])
	case OpBoolIte:
		if m.evalBool(sc, t.kids[0]) {
			v = m.evalBool(sc, t.kids[1])
		} else {
			v = m.evalBool(sc, t.kids[2])
		}
	case OpEq:
		v = m.evalBV(sc, t.kids[0]).Equal(m.evalBV(sc, t.kids[1]))
	case OpUlt:
		v = m.evalBV(sc, t.kids[0]).Less(m.evalBV(sc, t.kids[1]))
	case OpUle:
		v = !m.evalBV(sc, t.kids[1]).Less(m.evalBV(sc, t.kids[0]))
	default:
		panic(fmt.Sprintf("smt: cannot evaluate boolean op %v", t.op))
	}
	sc.store(t).b = v
	return v
}

func (m *Model) evalBV(sc *evalScratch, t *Term) value.V {
	if e := sc.lookup(t); e != nil {
		return e.v
	}
	var v value.V
	switch t.op {
	case OpBVConst:
		v = t.val
	case OpBVVar:
		v = m.Var(t)
	case OpBVAnd:
		v = m.evalBV(sc, t.kids[0]).And(m.evalBV(sc, t.kids[1]))
	case OpBVOr:
		v = m.evalBV(sc, t.kids[0]).Or(m.evalBV(sc, t.kids[1]))
	case OpBVXor:
		v = m.evalBV(sc, t.kids[0]).Xor(m.evalBV(sc, t.kids[1]))
	case OpBVNot:
		v = m.evalBV(sc, t.kids[0]).Not()
	case OpBVAdd:
		v = m.evalBV(sc, t.kids[0]).Add(m.evalBV(sc, t.kids[1]))
	case OpBVSub:
		v = m.evalBV(sc, t.kids[0]).Sub(m.evalBV(sc, t.kids[1]))
	case OpBVShl:
		v = m.evalBV(sc, t.kids[0]).Shl(int(t.kids[1].val.Uint64()))
	case OpBVShr:
		v = m.evalBV(sc, t.kids[0]).Shr(int(t.kids[1].val.Uint64()))
	case OpIte:
		if m.evalBool(sc, t.kids[0]) {
			v = m.evalBV(sc, t.kids[1])
		} else {
			v = m.evalBV(sc, t.kids[2])
		}
	case OpBVZext:
		v = m.evalBV(sc, t.kids[0]).WithWidth(t.width)
	case OpBVTrunc:
		v = m.evalBV(sc, t.kids[0]).WithWidth(t.width)
	default:
		panic(fmt.Sprintf("smt: cannot evaluate bitvector op %v", t.op))
	}
	sc.store(t).v = v
	return v
}
