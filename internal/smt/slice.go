// Slice-restricted solving: assertions registered lazily are only
// bit-blasted — and only constrain a check — when the check's
// cone-of-influence slice reaches them. The mechanism is the push-free
// incremental idiom over sat.AddGuarded: each lazy assertion gets an
// activation literal when first blasted, and a sliced check assumes
// exactly the activation literals inside the slice.
//
// Soundness. A sliced check decides F_S ∧ extra where F_S ⊆ F is the
// active subset of the asserted formula, so:
//
//   - Unsat is sound immediately: a subset of the constraints is already
//     contradictory, so the full conjunction is too.
//   - Sat needs model completion. The slice is the variable-sharing
//     closure of the seed: any lazy assertion sharing a variable with
//     the slice is pulled in (with its variables) until fixpoint, and so
//     is any assertion the background model fails to satisfy. At
//     fixpoint every excluded assertion (a) mentions no slice variable
//     and (b) holds under the background model. The completed model —
//     SAT values on slice variables, background values elsewhere — then
//     satisfies every assertion: active ones by the SAT result (their
//     variables are all in the slice), excluded ones by (a)+(b).
//
// Note the closure is over variable *sharing*, not a direct
// intersection with the seed: an assertion linking a seed variable x to
// an outside variable y must be kept active AND y's other assertions
// must follow, else completing y from the background could contradict
// the x–y link. The fixpoint guarantees no such link crosses the slice
// boundary.
package smt

import "switchv/internal/sat"

// lazyAssert is one assertion registered through AssertLazy: kept as a
// term until a check's slice first reaches it, then blasted under an
// activation literal.
type lazyAssert struct {
	t       *Term
	act     sat.Lit
	blasted bool
	vars    []*Term // OpBVVar support of t
	bgOK    int8    // 0 unknown, 1 background satisfies t, -1 it does not
}

// AssertLazy permanently constrains a boolean term to true. Every
// Check and CheckAssuming activates it; a sliced check activates it only
// when the check's slice reaches it. Its CNF encoding is deferred until
// the first check that activates it — a sliced campaign that never
// reaches it never pays for its clauses.
func (s *Solver) AssertLazy(t *Term) {
	s.asserted = append(s.asserted, t)
	la := lazyAssert{t: t}
	s.seen.reset()
	varSupport(t, &s.seen, &la.vars)
	for _, v := range la.vars {
		if s.universe.add(v) {
			s.universeVars = append(s.universeVars, v)
		}
	}
	s.lazy = append(s.lazy, la)
}

// SetBackground installs the canonical completion model for sliced
// checks (for the symbolic engine: the all-zero packet with only
// ethernet valid). CheckSliced falls back to a full check until one is
// set. Assertions the background does not satisfy are simply forced
// into every slice, so any parseable background is sound. Build the
// background with the solver's NewModel: CheckSliced evaluates it in
// the solver's evaluation scratch.
func (s *Solver) SetBackground(bg *Model) {
	s.bg = bg
	for i := range s.lazy {
		s.lazy[i].bgOK = 0
	}
}

// ensureBlasted lowers a lazy assertion to guarded CNF on first use.
func (s *Solver) ensureBlasted(i int) {
	la := &s.lazy[i]
	if la.blasted {
		return
	}
	la.act = s.freshLit()
	la.blasted = true
	s.NumClauses++
	s.sat.AddGuarded(la.act, s.BlastBool(la.t))
}

// activateAll blasts every pending lazy assertion and returns the full
// activation assumption set — the non-sliced semantics of Check and
// CheckAssuming.
func (s *Solver) activateAll() []sat.Lit {
	lits := make([]sat.Lit, 0, len(s.lazy))
	for i := range s.lazy {
		s.ensureBlasted(i)
		lits = append(lits, s.lazy[i].act)
	}
	return lits
}

// bgFails reports whether the background model violates the assertion
// (memoized; such assertions join every slice).
func (s *Solver) bgFails(la *lazyAssert) bool {
	if la.bgOK == 0 {
		if EvalBool(s.bg, la.t) {
			la.bgOK = 1
		} else {
			la.bgOK = -1
		}
	}
	return la.bgOK == -1
}

// CheckSliced decides the asserted formula conjoined with the extra
// terms, activating only the lazy assertions inside the variable-sharing
// closure seeded by the seed terms' and extras' variable support.
// Verdicts are identical to CheckAssuming by the argument at the top of
// this file; only the model differs, and Model, ValueBV and ValueBool
// transparently complete it from the background. Without a background
// model this is exactly CheckAssuming.
func (s *Solver) CheckSliced(seed []*Term, extra ...*Term) sat.Result {
	if s.bg == nil {
		return s.CheckAssuming(extra...)
	}
	s.NumChecks++
	s.seen.reset()
	s.slice.reset()
	var roots []*Term
	for _, t := range seed {
		varSupport(t, &s.seen, &roots)
	}
	for _, t := range extra {
		varSupport(t, &s.seen, &roots)
	}
	for _, v := range roots {
		s.slice.add(v)
	}
	active := make([]bool, len(s.lazy))
	for changed := true; changed; {
		changed = false
		for i := range s.lazy {
			if active[i] {
				continue
			}
			la := &s.lazy[i]
			pull := s.bgFails(la)
			if !pull {
				for _, v := range la.vars {
					if s.slice.has(v) {
						pull = true
						break
					}
				}
			}
			if !pull {
				continue
			}
			active[i] = true
			changed = true
			for _, v := range la.vars {
				s.slice.add(v)
			}
		}
	}
	var lits []sat.Lit
	for i := range s.lazy {
		if !active[i] {
			s.SlicedAsserts++
			continue
		}
		s.ensureBlasted(i)
		lits = append(lits, s.lazy[i].act)
	}
	for _, v := range s.universeVars {
		if !s.slice.has(v) {
			s.SlicedBits += v.width
		}
	}
	for _, t := range extra {
		lits = append(lits, s.BlastBool(t))
	}
	res := s.sat.Solve(lits...)
	s.sliced = res == sat.Sat
	return res
}

// varSupport collects the OpBVVar terms reachable from t, deduplicated
// through seen (shared across calls to union supports).
func varSupport(t *Term, seen *termSet, out *[]*Term) {
	if !seen.add(t) {
		return
	}
	if t.op == OpBVVar {
		*out = append(*out, t)
		return
	}
	for _, k := range t.kids {
		varSupport(k, seen, out)
	}
}

// termSet is a set of one builder's terms, indexed by term ID: a term is
// a member when its slot holds the set's epoch, so reset empties the set
// in O(1). The epoch of a set in use is never 0 — reset moves it to 1 or
// past — because freshly grown slots hold 0 and must not count.
type termSet struct {
	epoch uint32
	marks []uint32
}

// reset empties the set.
func (s *termSet) reset() {
	s.epoch++
	if s.epoch == 0 {
		// Wrapped: stale stamps could equal the new epoch.
		clear(s.marks)
		s.epoch = 1
	}
}

func (s *termSet) has(t *Term) bool {
	return t.id < len(s.marks) && s.marks[t.id] == s.epoch
}

// add inserts t and reports whether it was absent.
func (s *termSet) add(t *Term) bool {
	if t.id >= len(s.marks) {
		s.marks = append(s.marks, make([]uint32, t.id+1-len(s.marks))...)
	}
	if s.marks[t.id] == s.epoch {
		return false
	}
	s.marks[t.id] = s.epoch
	return true
}
