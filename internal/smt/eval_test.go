package smt

import (
	"math/rand"
	"testing"

	"switchv/internal/sat"
)

// randTerms builds a pool of random bitvector and boolean terms over a
// few variables, exercising every constructor the evaluator handles.
func randTerms(b *Builder, rng *rand.Rand) (bvs, bools []*Term) {
	widths := []int{1, 4, 8, 16, 32, 48}
	for i, w := range widths {
		bvs = append(bvs, b.BV("v"+string(rune('a'+i)), w))
		bvs = append(bvs, b.ConstUint(rng.Uint64()&((1<<uint(w))-1), w))
	}
	bools = append(bools, b.True(), b.False())
	pickBV := func() *Term { return bvs[rng.Intn(len(bvs))] }
	pickBool := func() *Term { return bools[rng.Intn(len(bools))] }
	samePair := func() (*Term, *Term) {
		x := pickBV()
		for {
			if y := pickBV(); y.Width() == x.Width() {
				return x, y
			}
		}
	}
	for i := 0; i < 120; i++ {
		switch rng.Intn(12) {
		case 0:
			x, y := samePair()
			bvs = append(bvs, b.BVAnd(x, y))
		case 1:
			x, y := samePair()
			bvs = append(bvs, b.BVOr(x, y))
		case 2:
			x, y := samePair()
			bvs = append(bvs, b.BVXor(x, y))
		case 3:
			bvs = append(bvs, b.BVNot(pickBV()))
		case 4:
			x, y := samePair()
			bvs = append(bvs, b.BVAdd(x, y))
		case 5:
			x, y := samePair()
			bvs = append(bvs, b.BVSub(x, y))
		case 6:
			x := pickBV()
			bvs = append(bvs, b.BVShlConst(x, rng.Intn(x.Width()+1)))
		case 7:
			x := pickBV()
			bvs = append(bvs, b.BVShrConst(x, rng.Intn(x.Width()+1)))
		case 8:
			x := pickBV()
			bvs = append(bvs, b.ZeroExtend(x, x.Width()+rng.Intn(16)))
		case 9:
			x := pickBV()
			bvs = append(bvs, b.Truncate(x, 1+rng.Intn(x.Width())))
		case 10:
			x, y := samePair()
			bvs = append(bvs, b.Ite(pickBool(), x, y))
		case 11:
			x, y := samePair()
			switch rng.Intn(5) {
			case 0:
				bools = append(bools, b.Eq(x, y))
			case 1:
				bools = append(bools, b.Ne(x, y))
			case 2:
				bools = append(bools, b.Ult(x, y))
			case 3:
				bools = append(bools, b.Ule(x, y))
			case 4:
				bools = append(bools, b.And(pickBool(), b.Or(pickBool(), b.Not(pickBool()))))
			}
		}
	}
	return bvs, bools
}

// TestEvalMatchesSolver is the differential check behind model-reuse
// pruning: on a SAT model, Eval over the term DAG must agree with the
// solver's own ValueBV/ValueBool on every term — including terms that
// were never blasted, where both sides default unassigned variables to
// zero.
func TestEvalMatchesSolver(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		s := NewSolver(b)
		bvs, bools := randTerms(b, rng)
		// Assert a random slice of the boolean pool (checking SAT first
		// with CheckAssuming so the conjunction stays satisfiable), plus
		// a few bitvector equalities to pin variables.
		asserted := 0
		for _, c := range bools {
			if asserted >= 6 {
				break
			}
			if rng.Intn(2) == 0 && s.CheckAssuming(c) == sat.Sat {
				s.AssertLazy(c)
				asserted++
			}
		}
		// Blast every pool term so the solver assigns its encoding bits
		// (ValueBV is a bit reader, not an evaluator: unblasted composite
		// terms read as zero). Tseitin definitions never make the
		// instance unsat.
		for _, term := range bvs {
			s.blastBV(term)
		}
		for _, term := range bools {
			s.BlastBool(term)
		}
		if s.Check() != sat.Sat {
			t.Fatalf("seed %d: asserted conjunction unsat", seed)
		}
		m := s.Model()
		for _, term := range bvs {
			want := s.ValueBV(term)
			if got := Eval(m, term); !got.Equal(want) {
				t.Fatalf("seed %d: Eval(%v) = %v, solver says %v", seed, term, got, want)
			}
		}
		for _, term := range bools {
			want := s.ValueBool(term)
			if got := EvalBool(m, term); got != want {
				t.Fatalf("seed %d: EvalBool(%v) = %v, solver says %v", seed, term, got, want)
			}
		}
	}
}

// TestEvalUnblastedDefaultsZero pins the zero-default contract: a
// variable that appears in no asserted constraint evaluates to zero,
// exactly like ValueBV.
func TestEvalUnblastedDefaultsZero(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.BV("x", 8)
	ghost := b.BV("ghost", 16) // never asserted, never blasted
	s.AssertLazy(b.Eq(x, b.ConstUint(7, 8)))
	if s.Check() != sat.Sat {
		t.Fatal("unsat")
	}
	m := s.Model()
	if got := Eval(m, ghost); !got.IsZero() {
		t.Errorf("unblasted var = %v, want 0", got)
	}
	if got := Eval(m, b.BVAdd(ghost, b.ConstUint(3, 16))); got.Uint64() != 3 {
		t.Errorf("ghost+3 = %v, want 3", got)
	}
	if got := s.ValueBV(ghost); !got.IsZero() {
		t.Errorf("solver default = %v, want 0", got)
	}
	// A bool over the ghost var agrees with the zero default.
	if !EvalBool(m, b.Eq(ghost, b.ConstUint(0, 16))) {
		t.Error("ghost == 0 should hold under the zero default")
	}
}

// TestModelSurvivesLaterChecks pins that a captured Model is a
// snapshot: further solver calls must not change what it evaluates to.
func TestModelSurvivesLaterChecks(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x := b.BV("x", 8)
	s.AssertLazy(b.Eq(x, b.ConstUint(5, 8)))
	if s.Check() != sat.Sat {
		t.Fatal("unsat")
	}
	m := s.Model()
	// Push the solver somewhere else.
	y := b.BV("y", 8)
	s.AssertLazy(b.Eq(y, b.ConstUint(9, 8)))
	if s.Check() != sat.Sat {
		t.Fatal("unsat after second assert")
	}
	if got := Eval(m, x); got.Uint64() != 5 {
		t.Errorf("snapshot x = %v, want 5", got)
	}
}
