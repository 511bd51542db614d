package smt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"switchv/internal/p4/value"
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

// randVars assigns random values to the pool's variables.
func randVars(rng *rand.Rand, bvs []*Term) map[*Term]value.V {
	vars := map[*Term]value.V{}
	for _, t := range bvs {
		if t.op == OpBVVar {
			vars[t] = value.New(rng.Uint64(), t.width)
		}
	}
	return vars
}

// checkEval evaluates a term under m and compares the result with the
// memo-free reference evaluator (variable names are unique in these
// tests).
func checkEval(t *testing.T, what string, m *Model, term *Term) {
	t.Helper()
	env := map[string]value.V{}
	for v, val := range m.vars {
		env[v.name] = val
	}
	want, _ := refEval(term, env)
	if got := Eval(m, term); !got.Equal(want) || got.Width != want.Width {
		t.Fatalf("%s: Eval(%v) = %v, reference %v", what, term, got, want)
	}
}

// TestSharedScratchInterleaving evaluates random terms under several
// models of one solver in a random interleaving — solver captures taken
// before and after later checks, a model built with NewModel and
// WithVars copies of them — so every evaluation may find the shared
// scratch holding another model's memo. Every value must equal the
// memo-free reference.
func TestSharedScratchInterleaving(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		s := NewSolver(b)
		bvs, bools := randTerms(b, rng)
		pool := append(append([]*Term{}, bvs...), bools...)
		var models []*Model
		capture := func(extra ...*Term) {
			if s.CheckAssuming(extra...) == sat.Sat {
				models = append(models, s.Model())
			}
		}
		capture()
		models = append(models, s.NewModel(randVars(rng, bvs)))
		for i := 0; len(models) < 6 && i < 40; i++ {
			capture(bools[rng.Intn(len(bools))])
		}
		a := models[0]
		models = append(models, a.WithVars(randVars(rng, bvs)), a.WithVars(nil))
		for i := 0; i < 2000; i++ {
			m := models[rng.Intn(len(models))]
			if i%3 == 0 {
				m = a // A, B, A, ...: A's memo is dropped and rebuilt
			}
			checkEval(t, fmt.Sprintf("seed %d, step %d", seed, i), m, pool[rng.Intn(len(pool))])
		}
	}
}

// TestEvalTermsOfTwoBuilders evaluates terms of two builders, built in
// the same order so that they share term IDs, under one model: a term
// must never read the memo of the other builder's term with its ID.
func TestEvalTermsOfTwoBuilders(t *testing.T) {
	b1, b2 := NewBuilder(), NewBuilder()
	s := NewSolver(b1)
	x1, x2 := b1.BV("x1", 8), b2.BV("x2", 8)
	sum1 := b1.BVAdd(x1, b1.ConstUint(1, 8))
	sum2 := b2.BVAdd(x2, b2.ConstUint(1, 8))
	if x1.id != x2.id || sum1.id != sum2.id {
		t.Fatalf("ids differ: %d/%d, %d/%d", x1.id, x2.id, sum1.id, sum2.id)
	}
	m := s.NewModel(map[*Term]value.V{x1: value.New(3, 8), x2: value.New(10, 8)})
	for i := 0; i < 3; i++ {
		for _, term := range []*Term{sum1, sum2, x2, x1, b1.Eq(sum1, b1.ConstUint(4, 8)), b2.Eq(sum2, b2.ConstUint(4, 8))} {
			checkEval(t, "two builders", m, term)
		}
	}
}

// TestEvalEpochWraparound runs the scratch's epoch across its wrap: a
// model's memo stamped with epoch 1 long ago must not be read by the
// model that takes the scratch over when the epoch wraps back to 1.
func TestEvalEpochWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder()
	s := NewSolver(b)
	bvs, bools := randTerms(b, rng)
	pool := append(append([]*Term{}, bvs...), bools...)
	ms := []*Model{s.NewModel(randVars(rng, bvs)), s.NewModel(randVars(rng, bvs)), s.NewModel(randVars(rng, bvs))}
	s.eval.epoch = 0
	for _, term := range pool {
		checkEval(t, "before the wrap", ms[0], term) // stamps epoch 1
	}
	s.eval.epoch = math.MaxUint32 - 1
	for i := 0; i < 4; i++ {
		for j, m := range ms[1:] {
			for _, term := range pool {
				checkEval(t, fmt.Sprintf("round %d, model %d", i, j+1), m, term)
			}
		}
	}
	if s.eval.epoch >= math.MaxUint32-1 {
		t.Fatalf("epoch %d did not wrap", s.eval.epoch)
	}
}

// TestTermSetWraparound runs a term set's epoch across its wrap: terms
// added under epoch 1 must not be members after the wrap brings the
// epoch back to 1.
func TestTermSetWraparound(t *testing.T) {
	b := NewBuilder()
	x, y := b.BV("x", 8), b.BV("y", 8)
	var set termSet
	set.reset()
	set.add(x)
	if !set.has(x) || set.has(y) {
		t.Fatal("membership wrong before the wrap")
	}
	set.epoch = math.MaxUint32
	set.reset()
	if set.has(x) || set.has(y) {
		t.Fatal("a term added before the wrap is still a member")
	}
	if !set.add(y) || set.add(y) || !set.has(y) {
		t.Fatal("add after the wrap")
	}
}
