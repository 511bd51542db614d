package smt

import (
	"fmt"
	"math/rand"
	"testing"

	"switchv/internal/p4/value"
	"switchv/internal/sat"
)

// TestSlicedValuesFollowCompletedModel checks that after a sliced Sat
// check every value query reads the completed model: a variable outside
// the slice reads its background value, and so does every term built
// over it, even when an earlier full check left different bits in the
// SAT solver.
func TestSlicedValuesFollowCompletedModel(t *testing.T) {
	b := NewBuilder()
	s := NewSolver(b)
	x, y := b.BV("x", 8), b.BV("y", 8)
	s.AssertLazy(b.Ule(y, b.ConstUint(10, 8)))
	s.SetBackground(s.NewModel(map[*Term]value.V{y: value.Zero(8)}))
	y1 := b.BVAdd(y, b.ConstUint(1, 8))
	hit := b.Eq(y1, b.ConstUint(8, 8))
	if r := s.CheckAssuming(hit); r != sat.Sat {
		t.Fatalf("CheckAssuming(y+1 == 8) = %v", r)
	}
	if got := s.ValueBV(y); got.Uint64() != 7 {
		t.Fatalf("full check: y = %v, want 7", got)
	}
	if r := s.CheckSliced([]*Term{x}, b.Eq(x, b.ConstUint(5, 8))); r != sat.Sat {
		t.Fatalf("CheckSliced(x == 5) = %v", r)
	}
	m := s.Model()
	if got := s.ValueBV(x); got.Uint64() != 5 {
		t.Errorf("x = %v, want 5", got)
	}
	if got, want := s.ValueBV(y), m.Var(y); !got.Equal(want) || got.Uint64() != 0 {
		t.Errorf("y = %v, model says %v, want 0", got, want)
	}
	if got, want := s.ValueBV(y1), Eval(m, y1); !got.Equal(want) || got.Uint64() != 1 {
		t.Errorf("y+1 = %v, model says %v, want 1", got, want)
	}
	if got, want := s.ValueBool(hit), EvalBool(m, hit); got != want || got {
		t.Errorf("y+1 == 8 = %v, model says %v, want false", got, want)
	}
}

// TestSlicedVerdictsMatchFullChecks drives CheckSliced over a small
// formula whose background violates some assertions and satisfies the
// rest. Every verdict must equal CheckAssuming's on a second solver, and
// after every Sat the completed model must satisfy each asserted term
// and the query, with ValueBV and ValueBool agreeing with it.
func TestSlicedVerdictsMatchFullChecks(t *testing.T) {
	b := NewBuilder()
	sliced, full := NewSolver(b), NewSolver(b)
	const w = 8
	vars := []*Term{b.BV("a", w), b.BV("b", w), b.BV("c", w), b.BV("d", w), b.BV("e", w), b.BV("f", w)}
	a, bb, c, d, e, f := vars[0], vars[1], vars[2], vars[3], vars[4], vars[5]
	k := func(v uint64) *Term { return b.ConstUint(v, w) }
	for _, as := range []*Term{
		b.Ult(a, bb),                             // zero background violates it
		b.Eq(b.BVAdd(bb, c), k(20)),              // and this one
		b.Ne(d, k(3)),                            // zero background satisfies it
		b.Ule(e, k(7)),                           // and this one
		b.Eq(d, b.BVAdd(e, k(1))),                // violated: links d and e
		b.Ule(f, k(100)),                         // satisfied, isolated
		b.Implies(b.Eq(f, k(50)), b.Eq(e, k(2))), // satisfied: links f and e
	} {
		sliced.AssertLazy(as)
		full.AssertLazy(as)
	}
	sliced.SetBackground(sliced.NewModel(nil))
	sats := 0
	for i, v := range vars {
		for _, want := range []uint64{0, 2, 3, 5, 8, 19, 50, 200} {
			q := b.Eq(v, k(want))
			got := sliced.CheckSliced([]*Term{v}, q)
			if ref := full.CheckAssuming(q); got != ref {
				t.Fatalf("var %d == %d: sliced %v, full %v", i, want, got, ref)
			}
			if got != sat.Sat {
				continue
			}
			sats++
			m := sliced.Model()
			for _, as := range sliced.AssertedTerms() {
				if !EvalBool(m, as) {
					t.Fatalf("var %d == %d: completed model violates an asserted term", i, want)
				}
			}
			if !EvalBool(m, q) || !sliced.ValueBool(q) {
				t.Fatalf("var %d == %d: completed model violates the query", i, want)
			}
			for j, u := range vars {
				if got, want := sliced.ValueBV(u), m.Var(u); !got.Equal(want) {
					t.Fatalf("var %d: ValueBV = %v, model says %v", j, got, want)
				}
				sum := b.BVAdd(u, k(1))
				if got, want := sliced.ValueBV(sum), Eval(m, sum); !got.Equal(want) {
					t.Fatalf("var %d + 1: ValueBV = %v, model says %v", j, got, want)
				}
			}
		}
	}
	if sats == 0 {
		t.Fatal("no query was satisfiable")
	}
}

// mapSlice is the map-based definition of a sliced check's counters:
// the variable-sharing closure of the seed and extras' support, with
// every assertion the background violates pulled in, counting the
// assertions left out and the bits of the assertions' variables left
// out.
func mapSlice(asserts []*Term, bg map[string]value.V, seed []*Term, extra []*Term) (excluded, bits int) {
	support := func(t *Term) map[*Term]bool {
		vars := map[*Term]bool{}
		var walk func(*Term)
		walk = func(t *Term) {
			if t.op == OpBVVar {
				vars[t] = true
			}
			for _, k := range t.kids {
				walk(k)
			}
		}
		walk(t)
		return vars
	}
	inSlice := map[*Term]bool{}
	for _, t := range append(append([]*Term{}, seed...), extra...) {
		for v := range support(t) {
			inSlice[v] = true
		}
	}
	active := map[int]bool{}
	for changed := true; changed; {
		changed = false
		for i, a := range asserts {
			if active[i] {
				continue
			}
			holds, _ := refEval(a, bg)
			pull := holds.IsZero()
			for v := range support(a) {
				pull = pull || inSlice[v]
			}
			if pull {
				active[i], changed = true, true
				for v := range support(a) {
					inSlice[v] = true
				}
			}
		}
	}
	universe := map[*Term]bool{}
	for i, a := range asserts {
		if !active[i] {
			excluded++
		}
		for v := range support(a) {
			universe[v] = true
		}
	}
	for v := range universe {
		if !inSlice[v] {
			bits += v.width
		}
	}
	return excluded, bits
}

// TestSlicedCountsMatchMapDefinition registers random lazy assertions
// over a dozen variables, interleaved with random sliced checks, and
// holds every check's SlicedAsserts and SlicedBits increments to
// mapSlice.
func TestSlicedCountsMatchMapDefinition(t *testing.T) {
	bitsSeen := 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		s := NewSolver(b)
		var vars []*Term
		for i := 0; i < 12; i++ {
			vars = append(vars, b.BV(fmt.Sprintf("x%d", i), 4+rng.Intn(5)))
		}
		pick := func() *Term { return vars[rng.Intn(len(vars))] }
		konst := func(v *Term) *Term { return b.ConstUint(rng.Uint64(), v.Width()) }
		bgVars, bgEnv := map[*Term]value.V{}, map[string]value.V{}
		for _, v := range vars[:4] {
			val := value.New(rng.Uint64(), v.Width())
			bgVars[v], bgEnv[v.name] = val, val
		}
		s.SetBackground(s.NewModel(bgVars))
		var asserts []*Term
		for step := 0; step < 40; step++ {
			if rng.Intn(3) != 0 {
				x, y := pick(), pick()
				var a *Term
				switch rng.Intn(3) {
				case 0:
					a = b.Ule(x, konst(x))
				case 1:
					a = b.Ule(x, b.BVAdd(b.Resize(y, x.Width()), konst(x)))
				default:
					a = b.Implies(b.Eq(x, konst(x)), b.Ne(y, konst(y)))
				}
				s.AssertLazy(a)
				asserts = append(asserts, a)
				continue
			}
			seedTerms := []*Term{pick()}
			if rng.Intn(2) == 0 {
				x := pick()
				seedTerms = append(seedTerms, b.BVXor(x, b.Resize(pick(), x.Width())))
			}
			q := pick()
			extra := []*Term{b.Ne(q, konst(q))}
			wantEx, wantBits := mapSlice(asserts, bgEnv, seedTerms, extra)
			ex0, bits0 := s.SlicedAsserts, s.SlicedBits
			s.CheckSliced(seedTerms, extra...)
			if gotEx, gotBits := s.SlicedAsserts-ex0, s.SlicedBits-bits0; gotEx != wantEx || gotBits != wantBits {
				t.Fatalf("seed %d, step %d: sliced %d assertions and %d bits, want %d and %d",
					seed, step, gotEx, gotBits, wantEx, wantBits)
			}
			bitsSeen += wantBits
		}
	}
	if bitsSeen == 0 {
		t.Fatal("no check left a variable outside its slice")
	}
}
