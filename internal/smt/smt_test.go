package smt

import (
	"math/rand"
	"testing"

	"switchv/internal/p4/value"
	"switchv/internal/sat"
)

func TestEqModel(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.BV("x", 32)
	s.AssertLazy(b.Eq(x, b.ConstUint(0x0a000001, 32)))
	if r := s.Check(); r != sat.Sat {
		t.Fatalf("Check = %v", r)
	}
	if got := s.ValueBV(x); got.Uint64() != 0x0a000001 {
		t.Errorf("x = %v", got)
	}
}

func TestUnsatEq(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.BV("x", 8)
	s.AssertLazy(b.Eq(x, b.ConstUint(1, 8)))
	s.AssertLazy(b.Eq(x, b.ConstUint(2, 8)))
	if r := s.Check(); r != sat.Unsat {
		t.Fatalf("Check = %v", r)
	}
}

func TestUltSemantics(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.BV("x", 8)
	y := b.BV("y", 8)
	s.AssertLazy(b.Ult(x, y))
	s.AssertLazy(b.Ule(y, b.ConstUint(5, 8)))
	if r := s.Check(); r != sat.Sat {
		t.Fatalf("Check = %v", r)
	}
	xv, yv := s.ValueBV(x), s.ValueBV(y)
	if !xv.Less(yv) || yv.Uint64() > 5 {
		t.Errorf("x=%v y=%v", xv, yv)
	}
	// x < 0 is unsat.
	if r := s.CheckAssuming(b.Ult(x, b.ConstUint(0, 8))); r != sat.Unsat {
		t.Errorf("x < 0 = %v", r)
	}
}

func TestAddSubWrap(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.BV("x", 8)
	// x + 1 == 0  =>  x == 255.
	s.AssertLazy(b.Eq(b.BVAdd(x, b.ConstUint(1, 8)), b.ConstUint(0, 8)))
	if r := s.Check(); r != sat.Sat {
		t.Fatalf("Check = %v", r)
	}
	if got := s.ValueBV(x); got.Uint64() != 255 {
		t.Errorf("x = %v", got)
	}
	// y - 1 == 255  =>  y == 0.
	y := b.BV("y", 8)
	s.AssertLazy(b.Eq(b.BVSub(y, b.ConstUint(1, 8)), b.ConstUint(255, 8)))
	if r := s.Check(); r != sat.Sat {
		t.Fatalf("Check = %v", r)
	}
	if got := s.ValueBV(y); got.Uint64() != 0 {
		t.Errorf("y = %v", got)
	}
}

func TestShifts(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.BV("x", 16)
	s.AssertLazy(b.Eq(b.BVShlConst(x, 4), b.ConstUint(0xaab0, 16)))
	s.AssertLazy(b.Eq(b.BVShrConst(x, 8), b.ConstUint(0x0a, 16)))
	if r := s.Check(); r != sat.Sat {
		t.Fatalf("Check = %v", r)
	}
	got := s.ValueBV(x).Uint64()
	if got != 0x0aab {
		t.Errorf("x = %#x, want 0x0aab", got)
	}
}

func TestIte(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	c := b.BV("c", 1)
	x := b.Ite(b.Eq(c, b.ConstUint(1, 1)), b.ConstUint(10, 8), b.ConstUint(20, 8))
	s.AssertLazy(b.Eq(x, b.ConstUint(20, 8)))
	if r := s.Check(); r != sat.Sat {
		t.Fatalf("Check = %v", r)
	}
	if got := s.ValueBV(c); got.Uint64() != 0 {
		t.Errorf("c = %v", got)
	}
}

func TestMasking(t *testing.T) {
	// Ternary-style match: (x & mask) == (value & mask).
	b := NewBuilder()
	s := NewSolver(b)
	x := b.BV("x", 32)
	mask := b.ConstUint(0xff000000, 32)
	want := b.ConstUint(0x0a000000, 32)
	s.AssertLazy(b.Eq(b.BVAnd(x, mask), want))
	s.AssertLazy(b.Ne(x, b.ConstUint(0x0a000000, 32)))
	if r := s.Check(); r != sat.Sat {
		t.Fatalf("Check = %v", r)
	}
	got := s.ValueBV(x)
	if got.Uint64()>>24 != 0x0a || got.Uint64() == 0x0a000000 {
		t.Errorf("x = %v", got)
	}
}

func Test128Bit(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.BV("x", 128)
	target := value.New128(0x20010db800000000, 0x42, 128)
	s.AssertLazy(b.Eq(x, b.Const(target)))
	if r := s.Check(); r != sat.Sat {
		t.Fatalf("Check = %v", r)
	}
	if got := s.ValueBV(x); !got.Equal(target) {
		t.Errorf("x = %v, want %v", got, target)
	}
}

func TestCheckAssumingDoesNotPersist(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.BV("x", 8)
	s.AssertLazy(b.Ule(x, b.ConstUint(100, 8)))
	if r := s.CheckAssuming(b.Eq(x, b.ConstUint(7, 8))); r != sat.Sat {
		t.Fatalf("assume x=7: %v", r)
	}
	if got := s.ValueBV(x); got.Uint64() != 7 {
		t.Errorf("x = %v", got)
	}
	if r := s.CheckAssuming(b.Eq(x, b.ConstUint(8, 8))); r != sat.Sat {
		t.Fatalf("assume x=8: %v", r)
	}
	if got := s.ValueBV(x); got.Uint64() != 8 {
		t.Errorf("x = %v", got)
	}
	// Contradictory assumption is Unsat but not sticky.
	if r := s.CheckAssuming(b.Eq(x, b.ConstUint(200, 8))); r != sat.Unsat {
		t.Fatalf("assume x=200: %v", r)
	}
	if r := s.Check(); r != sat.Sat {
		t.Fatalf("Check after unsat assumption: %v", r)
	}
}

func TestBoolConnectives(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.BV("x", 4)
	y := b.BV("y", 4)
	p := b.Eq(x, b.ConstUint(3, 4))
	q := b.Eq(y, b.ConstUint(9, 4))
	s.AssertLazy(b.Implies(p, q))
	s.AssertLazy(b.Iff(p, b.True()))
	if r := s.Check(); r != sat.Sat {
		t.Fatalf("Check = %v", r)
	}
	if s.ValueBV(x).Uint64() != 3 || s.ValueBV(y).Uint64() != 9 {
		t.Errorf("x=%v y=%v", s.ValueBV(x), s.ValueBV(y))
	}
	if !s.ValueBool(p) || !s.ValueBool(q) {
		t.Error("ValueBool mismatch")
	}
}

func TestBuilderFolding(t *testing.T) {
	b := NewBuilder()
	x := b.BV("x", 8)
	if b.And(b.True(), x.eqSelf(b)) != x.eqSelf(b) {
		t.Error("And(true, p) != p")
	}
	if b.Eq(x, x) != b.True() {
		t.Error("Eq(x,x) != true")
	}
	if b.Not(b.Not(x.eqSelf(b))) != x.eqSelf(b) {
		t.Error("double negation not folded")
	}
	c1 := b.ConstUint(3, 8)
	c2 := b.ConstUint(5, 8)
	if b.BVAdd(c1, c2).Const().Uint64() != 8 {
		t.Error("const add not folded")
	}
	if b.Ult(c1, c2) != b.True() {
		t.Error("const ult not folded")
	}
	if b.Eq(c1, c2) != b.False() {
		t.Error("const eq not folded")
	}
	// Hash consing: same structure, same pointer.
	if b.BVAdd(x, c1) != b.BVAdd(x, c1) {
		t.Error("hash consing failed")
	}
	if b.BV("x", 8) != x {
		t.Error("variable interning failed")
	}
}

// eqSelf makes an arbitrary boolean term mentioning t (test helper).
func (t *Term) eqSelf(b *Builder) *Term { return b.Ule(t, t.maxConst(b)) }

func (t *Term) maxConst(b *Builder) *Term { return b.Const(value.Ones(t.width)) }

// refEval is the memo-free reference evaluator: a plain recursion over
// the term with variables read from env by name, unlisted ones zero.
// Boolean terms evaluate to a 1-bit vector and report true.
func refEval(t *Term, env map[string]value.V) (value.V, bool) {
	switch t.op {
	case OpBoolConst:
		if t.b {
			return value.New(1, 1), true
		}
		return value.Zero(1), true
	case OpBVConst:
		return t.val, false
	case OpBVVar:
		if v, ok := env[t.name]; ok {
			return v, false
		}
		return value.Zero(t.width), false
	}
	kid := func(i int) value.V { v, _ := refEval(t.kids[i], env); return v }
	kidB := func(i int) bool { v, _ := refEval(t.kids[i], env); return !v.IsZero() }
	boolV := func(b bool) (value.V, bool) {
		if b {
			return value.New(1, 1), true
		}
		return value.Zero(1), true
	}
	switch t.op {
	case OpNot:
		return boolV(!kidB(0))
	case OpAnd:
		return boolV(kidB(0) && kidB(1))
	case OpOr:
		return boolV(kidB(0) || kidB(1))
	case OpImplies:
		return boolV(!kidB(0) || kidB(1))
	case OpIff:
		return boolV(kidB(0) == kidB(1))
	case OpEq:
		return boolV(kid(0).Equal(kid(1)))
	case OpUlt:
		return boolV(kid(0).Less(kid(1)))
	case OpUle:
		return boolV(!kid(1).Less(kid(0)))
	case OpIte, OpBoolIte:
		if kidB(0) {
			return refEval(t.kids[1], env)
		}
		return refEval(t.kids[2], env)
	case OpBVAnd:
		return kid(0).And(kid(1)), false
	case OpBVOr:
		return kid(0).Or(kid(1)), false
	case OpBVXor:
		return kid(0).Xor(kid(1)), false
	case OpBVNot:
		return kid(0).Not(), false
	case OpBVAdd:
		return kid(0).Add(kid(1)), false
	case OpBVSub:
		return kid(0).Sub(kid(1)), false
	case OpBVShl:
		return kid(0).Shl(int(kid(1).Uint64())), false
	case OpBVShr:
		return kid(0).Shr(int(kid(1).Uint64())), false
	case OpBVZext, OpBVTrunc:
		return kid(0).WithWidth(t.width), false
	}
	panic("refEval: bad op")
}

// randomBoolTerm builds a random boolean term over the given variables.
func randomBoolTerm(b *Builder, rng *rand.Rand, vars []*Term, depth int) *Term {
	randomBV := func(d int) *Term { return randomBVTerm(b, rng, vars, d) }
	if depth <= 0 || rng.Intn(4) == 0 {
		x := randomBV(1)
		y := randomBV(1)
		switch rng.Intn(3) {
		case 0:
			return b.Eq(x, y)
		case 1:
			return b.Ult(x, y)
		default:
			return b.Ule(x, y)
		}
	}
	switch rng.Intn(4) {
	case 0:
		return b.Not(randomBoolTerm(b, rng, vars, depth-1))
	case 1:
		return b.And(randomBoolTerm(b, rng, vars, depth-1), randomBoolTerm(b, rng, vars, depth-1))
	case 2:
		return b.Or(randomBoolTerm(b, rng, vars, depth-1), randomBoolTerm(b, rng, vars, depth-1))
	default:
		return b.Implies(randomBoolTerm(b, rng, vars, depth-1), randomBoolTerm(b, rng, vars, depth-1))
	}
}

func randomBVTerm(b *Builder, rng *rand.Rand, vars []*Term, depth int) *Term {
	w := vars[0].Width()
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return vars[rng.Intn(len(vars))]
		}
		return b.ConstUint(rng.Uint64()&(1<<uint(w)-1), w)
	}
	x := randomBVTerm(b, rng, vars, depth-1)
	y := randomBVTerm(b, rng, vars, depth-1)
	switch rng.Intn(7) {
	case 0:
		return b.BVAnd(x, y)
	case 1:
		return b.BVOr(x, y)
	case 2:
		return b.BVXor(x, y)
	case 3:
		return b.BVNot(x)
	case 4:
		return b.BVAdd(x, y)
	case 5:
		return b.BVSub(x, y)
	default:
		return b.BVShlConst(x, rng.Intn(w))
	}
}

// TestRandomTermsAgainstReference asserts random formulas; every SAT model
// must satisfy the formula under the reference evaluator, and every UNSAT
// verdict is spot-checked against random assignments.
func TestRandomTermsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		b := NewBuilder()
		s := NewSolver(b)
		vars := []*Term{b.BV("a", 8), b.BV("b", 8), b.BV("c", 8)}
		f := randomBoolTerm(b, rng, vars, 3)
		s.AssertLazy(f)
		switch s.Check() {
		case sat.Sat:
			env := map[string]value.V{}
			for _, v := range vars {
				env[v.Name()] = s.ValueBV(v)
			}
			got, _ := refEval(f, env)
			if got.IsZero() {
				t.Fatalf("trial %d: model does not satisfy %s (env %v)", trial, f, env)
			}
		case sat.Unsat:
			for i := 0; i < 200; i++ {
				env := map[string]value.V{}
				for _, v := range vars {
					env[v.Name()] = value.New(rng.Uint64(), 8)
				}
				if got, _ := refEval(f, env); !got.IsZero() {
					t.Fatalf("trial %d: UNSAT formula %s satisfied by %v", trial, f, env)
				}
			}
		default:
			t.Fatalf("trial %d: unknown verdict", trial)
		}
	}
}

func TestSortPanics(t *testing.T) {
	b := NewBuilder()
	x := b.BV("x", 8)
	y := b.BV("y", 16)
	for name, f := range map[string]func(){
		"width mismatch": func() { b.Eq(x, y) },
		"and on bv":      func() { b.And(x, x) },
		"not on bv":      func() { b.Not(x) },
		"bvnot on bool":  func() { b.BVNot(b.True()) },
		"ite arm widths": func() { b.Ite(b.True(), x, y) },
		"zero width var": func() { b.BV("z", 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkBlastAndSolveEq32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bu := NewBuilder()
		s := NewSolver(bu)
		x := bu.BV("x", 32)
		y := bu.BV("y", 32)
		s.AssertLazy(bu.Eq(bu.BVAdd(x, y), bu.ConstUint(0xdeadbeef, 32)))
		s.AssertLazy(bu.Ult(x, y))
		if s.Check() != sat.Sat {
			b.Fatal("unsat")
		}
	}
}

func TestResizeOps(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.BV("x", 8)
	// ZeroExtend: high bits are zero.
	wide := b.ZeroExtend(x, 16)
	s.AssertLazy(b.Eq(wide, b.ConstUint(0x00ab, 16)))
	if r := s.Check(); r != sat.Sat {
		t.Fatalf("Check = %v", r)
	}
	if got := s.ValueBV(x); got.Uint64() != 0xab {
		t.Errorf("x = %v", got)
	}
	// A zero-extended value can never have high bits set.
	if r := s.CheckAssuming(b.Eq(b.ZeroExtend(x, 16), b.ConstUint(0x1ab, 16))); r != sat.Unsat {
		t.Errorf("high bit on zext = %v", r)
	}
	// Truncate keeps low bits.
	y := b.BV("y", 16)
	s.AssertLazy(b.Eq(y, b.ConstUint(0x12cd, 16)))
	s.AssertLazy(b.Eq(b.Truncate(y, 8), b.ConstUint(0xcd, 8)))
	if r := s.Check(); r != sat.Sat {
		t.Fatalf("truncate: %v", r)
	}
	// Resize dispatches both ways; identity width returns the same term.
	if b.Resize(x, 8) != x {
		t.Error("Resize to same width is not identity")
	}
	if b.Resize(b.ConstUint(0x1ff, 9), 8).Const().Uint64() != 0xff {
		t.Error("const truncate fold")
	}
	if b.Resize(b.ConstUint(0xff, 8), 12).Const().Uint64() != 0xff {
		t.Error("const zext fold")
	}
	for name, f := range map[string]func(){
		"zext narrower": func() { b.ZeroExtend(y, 8) },
		"trunc wider":   func() { b.Truncate(x, 16) },
		"zext bool":     func() { b.ZeroExtend(b.True(), 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
