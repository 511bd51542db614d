package smt

import (
	"fmt"

	"switchv/internal/p4/value"
	"switchv/internal/sat"
)

// Solver decides QF_BV formulas by Tseitin bit-blasting onto a CDCL SAT
// solver. Assertions (AssertLazy) are permanent; CheckAssuming and
// CheckSliced support the symbolic engine's per-goal queries without
// re-blasting the pipeline formula.
type Solver struct {
	b   *Builder
	sat *sat.Solver

	trueLit  sat.Lit
	bvBits   map[*Term][]sat.Lit
	boolLits map[*Term]sat.Lit
	asserted []*Term

	// Slice-restricted solving state (see slice.go).
	lazy         []lazyAssert
	bg           *Model
	universe     termSet      // support union of every assertion...
	universeVars []*Term      // ...and its members, in insertion order
	seen         termSet      // varSupport's visited set
	slice        termSet      // variables of the last CheckSliced's slice
	sliced       bool         // the last check was a Sat sliced check
	eval         *evalScratch // shared by every Model of this solver

	// NumClauses counts Tseitin clauses emitted (benchmark metric).
	NumClauses int
	// NumChecks counts Check/CheckAssuming calls (the per-goal solver
	// invocations the pruning path avoids).
	NumChecks int
	// CNFReuse counts blast-memo hits: terms whose CNF encoding was
	// requested again and served from the memo instead of being rebuilt.
	// Across goals that share a program prefix this is the incremental
	// win — the shared prefix is blasted once and reused per goal.
	CNFReuse int
	// SlicedAsserts counts lazy assertions excluded from sliced checks
	// (summed per check), and SlicedBits the input variable bits those
	// checks left outside their slice — the work cone-of-influence
	// slicing avoided CNF'ing or constraining.
	SlicedAsserts int
	SlicedBits    int
}

// NewSolver returns a solver sharing the builder's terms. Every term
// handed to the solver must come from that builder: its slicing sets
// are indexed by term ID.
func NewSolver(b *Builder) *Solver {
	s := &Solver{
		b:        b,
		sat:      sat.New(),
		bvBits:   map[*Term][]sat.Lit{},
		boolLits: map[*Term]sat.Lit{},
		eval:     &evalScratch{b: b},
	}
	s.universe.reset() // grow-only: one epoch for the solver's life
	v := s.sat.NewVar()
	s.trueLit = sat.MkLit(v, false)
	s.addClause(s.trueLit)
	return s
}

func (s *Solver) addClause(lits ...sat.Lit) {
	s.NumClauses++
	s.sat.AddClause(lits...)
}

func (s *Solver) falseLit() sat.Lit { return s.trueLit.Not() }

func (s *Solver) freshLit() sat.Lit { return sat.MkLit(s.sat.NewVar(), false) }

// Gate helpers with small-case folding.

func (s *Solver) andGate(a, b sat.Lit) sat.Lit {
	switch {
	case a == s.falseLit() || b == s.falseLit():
		return s.falseLit()
	case a == s.trueLit:
		return b
	case b == s.trueLit:
		return a
	case a == b:
		return a
	case a == b.Not():
		return s.falseLit()
	}
	z := s.freshLit()
	s.addClause(z.Not(), a)
	s.addClause(z.Not(), b)
	s.addClause(z, a.Not(), b.Not())
	return z
}

func (s *Solver) orGate(a, b sat.Lit) sat.Lit {
	return s.andGate(a.Not(), b.Not()).Not()
}

func (s *Solver) xorGate(a, b sat.Lit) sat.Lit {
	switch {
	case a == s.falseLit():
		return b
	case b == s.falseLit():
		return a
	case a == s.trueLit:
		return b.Not()
	case b == s.trueLit:
		return a.Not()
	case a == b:
		return s.falseLit()
	case a == b.Not():
		return s.trueLit
	}
	z := s.freshLit()
	s.addClause(a.Not(), b.Not(), z.Not())
	s.addClause(a, b, z.Not())
	s.addClause(a.Not(), b, z)
	s.addClause(a, b.Not(), z)
	return z
}

func (s *Solver) iffGate(a, b sat.Lit) sat.Lit { return s.xorGate(a, b).Not() }

// muxGate returns c ? x : y.
func (s *Solver) muxGate(c, x, y sat.Lit) sat.Lit {
	switch {
	case c == s.trueLit:
		return x
	case c == s.falseLit():
		return y
	case x == y:
		return x
	}
	z := s.freshLit()
	s.addClause(c.Not(), x.Not(), z)
	s.addClause(c.Not(), x, z.Not())
	s.addClause(c, y.Not(), z)
	s.addClause(c, y, z.Not())
	return z
}

// majGate returns the majority of three literals (adder carry).
func (s *Solver) majGate(a, b, c sat.Lit) sat.Lit {
	return s.orGate(s.andGate(a, b), s.orGate(s.andGate(a, c), s.andGate(b, c)))
}

// BlastBool lowers a boolean term to a SAT literal, memoized.
func (s *Solver) BlastBool(t *Term) sat.Lit {
	if !t.IsBool() {
		panic("smt: BlastBool on bitvector term")
	}
	if l, ok := s.boolLits[t]; ok {
		s.CNFReuse++
		return l
	}
	var l sat.Lit
	switch t.op {
	case OpBoolConst:
		if t.b {
			l = s.trueLit
		} else {
			l = s.falseLit()
		}
	case OpNot:
		l = s.BlastBool(t.kids[0]).Not()
	case OpAnd:
		l = s.andGate(s.BlastBool(t.kids[0]), s.BlastBool(t.kids[1]))
	case OpOr:
		l = s.orGate(s.BlastBool(t.kids[0]), s.BlastBool(t.kids[1]))
	case OpImplies:
		l = s.orGate(s.BlastBool(t.kids[0]).Not(), s.BlastBool(t.kids[1]))
	case OpIff:
		l = s.iffGate(s.BlastBool(t.kids[0]), s.BlastBool(t.kids[1]))
	case OpBoolIte:
		l = s.muxGate(s.BlastBool(t.kids[0]), s.BlastBool(t.kids[1]), s.BlastBool(t.kids[2]))
	case OpEq:
		a := s.blastBV(t.kids[0])
		b := s.blastBV(t.kids[1])
		acc := s.trueLit
		for i := range a {
			acc = s.andGate(acc, s.iffGate(a[i], b[i]))
		}
		l = acc
	case OpUlt:
		l = s.ultChain(s.blastBV(t.kids[0]), s.blastBV(t.kids[1]))
	case OpUle:
		l = s.ultChain(s.blastBV(t.kids[1]), s.blastBV(t.kids[0])).Not()
	default:
		panic(fmt.Sprintf("smt: cannot blast boolean op %v", t.op))
	}
	s.boolLits[t] = l
	return l
}

// ultChain encodes unsigned a < b over LSB-first bit slices.
func (s *Solver) ultChain(a, b []sat.Lit) sat.Lit {
	lt := s.falseLit()
	for i := 0; i < len(a); i++ { // LSB to MSB; MSB dominates
		biGtAi := s.andGate(a[i].Not(), b[i])
		eq := s.iffGate(a[i], b[i])
		lt = s.muxGate(eq, lt, biGtAi)
	}
	return lt
}

// blastBV lowers a bitvector term to its bits (LSB first), memoized.
func (s *Solver) blastBV(t *Term) []sat.Lit {
	if t.IsBool() {
		panic("smt: blastBV on boolean term")
	}
	if bits, ok := s.bvBits[t]; ok {
		s.CNFReuse++
		return bits
	}
	w := t.width
	bits := make([]sat.Lit, w)
	switch t.op {
	case OpBVConst:
		for i := 0; i < w; i++ {
			if t.val.Bit(i) {
				bits[i] = s.trueLit
			} else {
				bits[i] = s.falseLit()
			}
		}
	case OpBVVar:
		for i := range bits {
			bits[i] = s.freshLit()
		}
	case OpBVAnd:
		a, b := s.blastBV(t.kids[0]), s.blastBV(t.kids[1])
		for i := range bits {
			bits[i] = s.andGate(a[i], b[i])
		}
	case OpBVOr:
		a, b := s.blastBV(t.kids[0]), s.blastBV(t.kids[1])
		for i := range bits {
			bits[i] = s.orGate(a[i], b[i])
		}
	case OpBVXor:
		a, b := s.blastBV(t.kids[0]), s.blastBV(t.kids[1])
		for i := range bits {
			bits[i] = s.xorGate(a[i], b[i])
		}
	case OpBVNot:
		a := s.blastBV(t.kids[0])
		for i := range bits {
			bits[i] = a[i].Not()
		}
	case OpBVAdd:
		a, b := s.blastBV(t.kids[0]), s.blastBV(t.kids[1])
		carry := s.falseLit()
		for i := range bits {
			bits[i] = s.xorGate(s.xorGate(a[i], b[i]), carry)
			if i+1 < w {
				carry = s.majGate(a[i], b[i], carry)
			}
		}
	case OpBVSub:
		// a - b = a + ~b + 1.
		a, b := s.blastBV(t.kids[0]), s.blastBV(t.kids[1])
		carry := s.trueLit
		for i := range bits {
			nb := b[i].Not()
			bits[i] = s.xorGate(s.xorGate(a[i], nb), carry)
			if i+1 < w {
				carry = s.majGate(a[i], nb, carry)
			}
		}
	case OpBVShl:
		a := s.blastBV(t.kids[0])
		n := int(t.kids[1].val.Uint64())
		for i := range bits {
			if i-n >= 0 && i-n < w {
				bits[i] = a[i-n]
			} else {
				bits[i] = s.falseLit()
			}
		}
	case OpBVShr:
		a := s.blastBV(t.kids[0])
		n := int(t.kids[1].val.Uint64())
		for i := range bits {
			if i+n < w {
				bits[i] = a[i+n]
			} else {
				bits[i] = s.falseLit()
			}
		}
	case OpIte:
		c := s.BlastBool(t.kids[0])
		a, b := s.blastBV(t.kids[1]), s.blastBV(t.kids[2])
		for i := range bits {
			bits[i] = s.muxGate(c, a[i], b[i])
		}
	case OpBVZext:
		a := s.blastBV(t.kids[0])
		for i := range bits {
			if i < len(a) {
				bits[i] = a[i]
			} else {
				bits[i] = s.falseLit()
			}
		}
	case OpBVTrunc:
		a := s.blastBV(t.kids[0])
		copy(bits, a[:w])
	default:
		panic(fmt.Sprintf("smt: cannot blast bitvector op %v", t.op))
	}
	s.bvBits[t] = bits
	return bits
}

// AssertedTerms returns every term passed to AssertLazy, in assertion
// order. A candidate model is a genuine model of the solver's formula iff
// it satisfies all of them; the witness engine uses this to confirm
// synthesized packets without a solver call.
func (s *Solver) AssertedTerms() []*Term { return s.asserted }

// Check decides the asserted formula.
func (s *Solver) Check() sat.Result {
	s.NumChecks++
	s.sliced = false
	return s.sat.Solve(s.activateAll()...)
}

// CheckAssuming decides the asserted formula conjoined with the given
// boolean terms, without making them permanent.
func (s *Solver) CheckAssuming(terms ...*Term) sat.Result {
	s.NumChecks++
	s.sliced = false
	lits := s.activateAll()
	for _, t := range terms {
		lits = append(lits, s.BlastBool(t))
	}
	return s.sat.Solve(lits...)
}

// ValueBV returns the model value of a bitvector term after a Sat result.
// Terms that never appeared in the formula are unconstrained and read as
// zero. After a sliced check the value is the completed model's (see
// Model): a variable outside the slice reads its background value, and
// any other non-constant term is evaluated under a freshly captured
// completed model (capture it once with Model to evaluate many terms).
func (s *Solver) ValueBV(t *Term) value.V {
	switch {
	case t.op == OpBVConst:
		return t.val
	case !s.sliced:
	case t.op != OpBVVar:
		return Eval(s.Model(), t)
	case !s.slice.has(t):
		return s.bg.Var(t)
	}
	bits, ok := s.bvBits[t]
	if !ok {
		return value.Zero(t.width)
	}
	v := value.Zero(t.width)
	for i, l := range bits {
		if s.sat.LitValue(l) {
			v = v.SetBit(i, true)
		}
	}
	return v
}

// ValueBool returns the model value of a boolean term after a Sat result.
// After a sliced check it is evaluated under the completed model, as in
// ValueBV.
func (s *Solver) ValueBool(t *Term) bool {
	if s.sliced {
		return EvalBool(s.Model(), t)
	}
	l, ok := s.boolLits[t]
	if !ok {
		return false
	}
	return s.sat.LitValue(l)
}

// Stats exposes the underlying SAT solver counters.
func (s *Solver) Stats() sat.Stats { return s.sat.Stats }

// NumVars returns the number of SAT variables allocated.
func (s *Solver) NumVars() int { return s.sat.NumVars() }
