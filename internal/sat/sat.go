// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-watched-literal propagation, VSIDS branching, 1UIP
// conflict analysis, phase saving, Luby restarts, and incremental solving
// under assumptions. It is the decision engine underneath the SMT layer
// that p4-symbolic uses in place of Z3.
//
// Clauses live in one flat arena of literal words, each a header, its
// literals and, for a learnt clause, its activity; a clause reference is
// the header's offset, and a watcher is that reference plus a blocker
// literal. A binary clause is propagated from its watcher alone, since
// its blocker is its other literal. reduceDB marks deleted clauses and
// compacts the arena once they hold more than half of it.
//
// Values are indexed by literal: assigning a variable sets both of its
// literals' values and backtracking clears both, so a literal's value is
// one load (vals[l]). propagate compacts each watch list in place, reads
// a long clause's literals straight from the arena, and assigns the
// literals it implies without enqueue's re-check.
//
// The search is pinned: storage may change, but no decision,
// propagation, learnt clause, deleted clause or model may
// (TestSearchPinned). A clause's literal order reaches the search in
// three places, and each must see the same order it always did: analyze
// bumps a conflict clause's variables in stored order, analyze skips a
// reason clause's implied literal, and clauseLocked finds that literal.
// Each watch list keeps its order, and the heap its sift order, since
// the first decides which clause propagates or conflicts first and the
// second breaks ties between equal activities. A reference's numeric
// value reaches nothing; references are only compared for equality.
package sat

import (
	"math"
	"slices"
	"sort"
)

// Var is a 0-based variable index.
type Var int32

// Lit is a literal: variable times two, plus one if negated.
type Lit int32

// MkLit builds a literal from a variable and a sign.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Result is a solver verdict.
type Result int

// Solver verdicts.
const (
	Unknown Result = iota
	Sat
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

// Clause storage. Every clause lives in one flat arena of Lit words: a
// header word, the literals inline, and for a learnt clause two trailing
// words holding the bits of its float64 activity. A clause reference is
// the offset of its header. The header packs the literal count above
// hdrShift with the learnt and deleted flags below it.
const (
	hdrLearnt  Lit = 1
	hdrDeleted Lit = 2
	hdrShift       = 2

	// maxArena bounds the arena so that a reference shifted left by one
	// bit (see watcher) still fits an int32.
	maxArena = 1 << 30

	noReason int32 = -1
)

// watcher sits in the watch list of the negation of one of a clause's
// first two literals. tag is the clause reference shifted left one bit,
// with the low bit set for a binary clause. blocker is a literal of the
// clause whose truth satisfies it; for a binary clause it is always the
// other literal, so propagation decides a binary clause from the watcher
// alone.
type watcher struct {
	tag     int32
	blocker Lit
}

func (w watcher) cref() int32  { return w.tag >> 1 }
func (w watcher) binary() bool { return w.tag&1 != 0 }

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses []int32 // refs of problem clauses
	learnts []int32 // refs of learnt clauses
	arena   []Lit
	wasted  int   // arena words held by deleted clauses
	buf     []Lit // AddClause normalization and analyze scratch

	watches [][]watcher // indexed by Lit

	vals     []lbool // indexed by Lit; a variable's two literals are opposite or both lUndef
	level    []int32
	reason   []int32 // clause ref or noReason
	phase    []bool
	activity []float64
	varInc   float64

	trail    []Lit
	trailLim []int
	qhead    int

	heap    []Var // binary max-heap on activity
	heapIdx []int32

	clauseInc float64

	seen     []bool
	unsatCI  bool // formula is UNSAT regardless of assumptions
	Stats    Stats
	maxLearn int
}

// Stats counts solver work, for benchmarking.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64
	// SolveCalls counts Solve invocations on this solver; together with
	// KeptLearnts it measures how much the incremental path reuses.
	SolveCalls int64
	// KeptLearnts sums, over Solve calls after the first, the learnt
	// clauses already present when the call started — the knowledge
	// carried across goals instead of being rebuilt cold.
	KeptLearnts int64
	// AssumpConflicts counts conflicts hit inside the assumption prefix
	// (decision level at or below the assumption count): contradictions
	// between a goal's assumptions and the shared formula, resolved
	// without descending into free search.
	AssumpConflicts int64
}

// Add accumulates another solver's counters into s (aggregating work
// across the per-shard solvers of a parallel campaign).
func (s *Stats) Add(o Stats) {
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Conflicts += o.Conflicts
	s.Restarts += o.Restarts
	s.Learnt += o.Learnt
	s.SolveCalls += o.SolveCalls
	s.KeptLearnts += o.KeptLearnts
	s.AssumpConflicts += o.AssumpConflicts
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{varInc: 1, clauseInc: 1, maxLearn: 4000}
}

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.level))
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.watches = append(s.watches, nil, nil)
	s.seen = append(s.seen, false)
	s.heapIdx = append(s.heapIdx, -1)
	s.heapInsert(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.level) }

// AddClause adds a problem clause. It returns false if the formula became
// trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	s.buf = append(s.buf[:0], lits...)
	return s.addBuf()
}

// addBuf adds the clause held in s.buf as a problem clause.
func (s *Solver) addBuf() bool {
	if s.unsatCI {
		return false
	}
	// Must be called at decision level 0.
	s.backtrackTo(0)
	// Normalize: sort, dedupe, drop false lits, detect tautology/satisfied.
	slices.Sort(s.buf)
	out := s.buf[:0]
	var prev Lit = -1
	for _, l := range s.buf {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return true // tautology
		}
		switch s.vals[l] {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue // drop
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.unsatCI = true
		return false
	case 1:
		if !s.enqueue(out[0], noReason) {
			s.unsatCI = true
			return false
		}
		if s.propagate() != noReason {
			s.unsatCI = true
			return false
		}
		return true
	}
	cref := s.allocClause(out, false)
	s.clauses = append(s.clauses, cref)
	s.watchClause(cref)
	return true
}

// AddGuarded adds a clause guarded by an activation literal: the clause
// only constrains the formula while act is assumed true in Solve. This is
// the push-free incremental idiom — per-goal constraints are added under
// fresh activation literals and switched on by assumption, so the CNF and
// the learned-clause database survive from goal to goal. Soundness of
// retained learnt clauses: any learnt clause derived through a guarded
// clause resolves in ¬act, so once the guard is retired (¬act asserted)
// or simply not assumed, those learnt clauses are satisfied and inert.
func (s *Solver) AddGuarded(act Lit, lits ...Lit) bool {
	s.buf = append(append(s.buf[:0], act.Not()), lits...)
	return s.addBuf()
}

// Retire permanently deactivates an activation literal: every clause
// guarded by act becomes satisfied and the solver may never enable it
// again. Learnt clauses that depended on guarded clauses stay sound (they
// contain ¬act and are now satisfied).
func (s *Solver) Retire(act Lit) bool {
	return s.AddClause(act.Not())
}

// allocClause copies a clause into the arena and returns its reference.
func (s *Solver) allocClause(lits []Lit, learnt bool) int32 {
	cref := len(s.arena)
	hdr := Lit(len(lits)) << hdrShift
	words := 1 + len(lits)
	if learnt {
		hdr |= hdrLearnt
		words += 2
	}
	if cref+words > maxArena {
		panic("sat: clause arena exceeds 2^30 words")
	}
	s.arena = append(s.arena, hdr)
	s.arena = append(s.arena, lits...)
	if learnt {
		s.arena = append(s.arena, 0, 0) // activity 0
	}
	return int32(cref)
}

// lits returns the literals of clause cref, aliasing the arena.
func (s *Solver) lits(cref int32) []Lit {
	i := int(cref) + 1
	return s.arena[i : i+int(s.arena[cref]>>hdrShift)]
}

func (s *Solver) isLearnt(cref int32) bool { return s.arena[cref]&hdrLearnt != 0 }

// clauseWords returns the number of arena words clause cref occupies.
func clauseWords(arena []Lit, cref int) int {
	n := 1 + int(arena[cref]>>hdrShift)
	if arena[cref]&hdrLearnt != 0 {
		n += 2
	}
	return n
}

// clauseActivity reads a learnt clause's activity from the two words
// after its literals.
func (s *Solver) clauseActivity(cref int32) float64 {
	i := int(cref) + 1 + int(s.arena[cref]>>hdrShift)
	return math.Float64frombits(uint64(uint32(s.arena[i])) | uint64(uint32(s.arena[i+1]))<<32)
}

func (s *Solver) setClauseActivity(cref int32, a float64) {
	i := int(cref) + 1 + int(s.arena[cref]>>hdrShift)
	b := math.Float64bits(a)
	s.arena[i], s.arena[i+1] = Lit(uint32(b)), Lit(uint32(b>>32))
}

func (s *Solver) watchClause(cref int32) {
	ls := s.lits(cref)
	tag := cref << 1
	if len(ls) == 2 {
		tag |= 1
	}
	s.watches[ls[0].Not()] = append(s.watches[ls[0].Not()], watcher{tag, ls[1]})
	s.watches[ls[1].Not()] = append(s.watches[ls[1].Not()], watcher{tag, ls[0]})
}

// enqueue assigns a literal true with a reason clause (noReason for
// decisions and unit facts). It reports false if the literal is false.
func (s *Solver) enqueue(l Lit, from int32) bool {
	switch s.vals[l] {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	s.assign(l, from)
	return true
}

// assign makes an unassigned literal true with a reason clause and puts
// it on the trail.
func (s *Solver) assign(l Lit, from int32) {
	s.vals[l], s.vals[l.Not()] = lTrue, lFalse
	v := l.Var()
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.phase[v] = !l.Neg()
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; it returns the ref of a conflicting
// clause, or noReason.
//
// Each watch list is compacted in place: a watcher that stays is written
// to the list's next kept slot, so kept watchers keep their order. A long
// clause visited past its blocker is kept, in the arena, as [other watched
// literal, ¬p, ...]. A binary clause is decided from its watcher and its
// arena copy is left in whatever order it has, except on a conflict,
// where it is stored as [other, ¬p] like a long clause before analyze
// reads it (see analyze and clauseLocked for the other two places that
// read a binary clause's order).
func (s *Solver) propagate() int32 {
	vals, arena := s.vals, s.arena
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		falseLit := p.Not()
		ws := s.watches[p]
		j := 0 // ws[:j] holds the watchers kept so far
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			bv := vals[w.blocker]
			if bv == lTrue {
				ws[j] = w
				j++
				continue
			}
			if w.binary() {
				ws[j] = w
				j++
				if bv == lFalse {
					if c := int(w.cref()) + 1; arena[c] == falseLit {
						arena[c], arena[c+1] = arena[c+1], falseLit
					}
					j += copy(ws[j:], ws[i+1:])
					s.watches[p] = ws[:j]
					s.qhead = len(s.trail)
					return w.cref()
				}
				s.assign(w.blocker, w.cref())
				continue
			}
			// The clause's literals are arena[c:end]. Ensure arena[c] is
			// the other watched literal.
			cref := w.cref()
			c := int(cref) + 1
			end := c + int(arena[cref]>>hdrShift)
			if arena[c] == falseLit {
				arena[c], arena[c+1] = arena[c+1], falseLit
			}
			first := arena[c]
			if first != w.blocker && vals[first] == lTrue {
				ws[j] = watcher{w.tag, first}
				j++
				continue
			}
			// Find a new literal to watch.
			k := c + 2
			for k < end && vals[arena[k]] == lFalse {
				k++
			}
			if k < end {
				l := arena[k]
				arena[c+1], arena[k] = l, falseLit
				s.watches[l.Not()] = append(s.watches[l.Not()], watcher{w.tag, first})
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{w.tag, first}
			j++
			if vals[first] == lFalse {
				// Conflict: keep the remaining watchers.
				j += copy(ws[j:], ws[i+1:])
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return cref
			}
			s.assign(first, cref)
		}
		s.watches[p] = ws[:j]
	}
	return noReason
}

// analyze performs 1UIP conflict analysis, returning the learnt clause
// (first literal is the asserting one) and the backjump level. The
// clause aliases s.buf until the next analyze or AddClause.
func (s *Solver) analyze(confl int32) ([]Lit, int) {
	learnt := append(s.buf[:0], 0) // placeholder for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		if s.isLearnt(confl) {
			s.bumpClause(confl)
		}
		ls := s.lits(confl)
		if p != -1 {
			// A reason clause: skip the literal it implied. That is ls[0],
			// except in a binary clause, whose order propagate does not
			// maintain.
			if len(ls) > 2 || ls[0].Var() == p.Var() {
				ls = ls[1:]
			} else {
				ls = ls[:1]
			}
		}
		for _, q := range ls {
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if int(s.level[v]) >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find the next seen literal on the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		confl = s.reason[v]
		counter--
		if counter == 0 {
			break
		}
	}
	learnt[0] = p.Not()
	s.buf = learnt

	// Compute backjump level: max level among learnt[1:].
	back := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		back = int(s.level[learnt[1].Var()])
	}
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}
	return learnt, back
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heapFix(v)
}

func (s *Solver) bumpClause(cref int32) {
	a := s.clauseActivity(cref) + s.clauseInc
	s.setClauseActivity(cref, a)
	if a > 1e20 {
		for _, ref := range s.learnts {
			s.setClauseActivity(ref, s.clauseActivity(ref)*1e-20)
		}
		s.clauseInc *= 1e-20
	}
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.clauseInc /= 0.999
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		s.vals[l], s.vals[l.Not()] = lUndef, lUndef
		v := l.Var()
		s.reason[v] = noReason
		if s.heapIdx[v] < 0 {
			s.heapInsert(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// pickBranchVar returns the unassigned variable with highest activity.
func (s *Solver) pickBranchVar() Var {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.vals[MkLit(v, false)] == lUndef {
			return v
		}
	}
	return -1
}

// reduceDB removes the less active half of the learnt clauses, and
// compacts the arena once deleted clauses hold more than half of it.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		return s.clauseActivity(s.learnts[i]) > s.clauseActivity(s.learnts[j])
	})
	keep := s.learnts[:len(s.learnts)/2]
	drop := s.learnts[len(s.learnts)/2:]
	kept := keep
	for _, cref := range drop {
		if s.clauseLocked(cref) {
			kept = append(kept, cref)
			continue
		}
		s.detachClause(cref)
		s.arena[cref] |= hdrDeleted
		s.wasted += clauseWords(s.arena, int(cref))
	}
	s.learnts = kept
	if s.wasted > len(s.arena)/2 {
		s.compact()
	}
}

// clauseLocked reports whether clause cref is the reason for a current
// assignment. That is always the clause's first literal, except in a
// binary clause, whose order propagate does not maintain.
func (s *Solver) clauseLocked(cref int32) bool {
	ls := s.lits(cref)
	return s.implies(cref, ls[0]) || len(ls) == 2 && s.implies(cref, ls[1])
}

func (s *Solver) implies(cref int32, l Lit) bool {
	return s.reason[l.Var()] == cref && s.vals[l] != lUndef
}

func (s *Solver) detachClause(cref int32) {
	ls := s.lits(cref)
	for _, wl := range [2]Lit{ls[0].Not(), ls[1].Not()} {
		ws := s.watches[wl]
		for i, w := range ws {
			if w.cref() == cref {
				ws[i] = ws[len(ws)-1]
				s.watches[wl] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// compact copies the live clauses into a fresh arena in their arena
// order and rewrites every reference to them: watchers, reasons and the
// clause lists. No list is reordered; only reference values change.
func (s *Solver) compact() {
	old := s.arena
	s.arena = make([]Lit, 0, len(old)-s.wasted)
	for cref := 0; cref < len(old); {
		n := clauseWords(old, cref)
		if old[cref]&hdrDeleted == 0 {
			// Every clause has at least two literals, so the first one's
			// word can hold the forwarding reference.
			to := len(s.arena)
			s.arena = append(s.arena, old[cref:cref+n]...)
			old[cref+1] = Lit(to)
		}
		cref += n
	}
	s.wasted = 0
	fwd := func(cref int32) int32 { return int32(old[cref+1]) }
	for _, ws := range s.watches {
		for i, w := range ws {
			ws[i].tag = fwd(w.cref())<<1 | w.tag&1
		}
	}
	for v, cref := range s.reason {
		if cref != noReason {
			s.reason[v] = fwd(cref)
		}
	}
	for i, cref := range s.clauses {
		s.clauses[i] = fwd(cref)
	}
	for i, cref := range s.learnts {
		s.learnts[i] = fwd(cref)
	}
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// Solve determines satisfiability under the given assumption literals.
// After Sat, Value reports the model; after Unsat under assumptions, the
// formula itself may still be satisfiable.
func (s *Solver) Solve(assumptions ...Lit) Result {
	if s.Stats.SolveCalls > 0 {
		s.Stats.KeptLearnts += int64(len(s.learnts))
	}
	s.Stats.SolveCalls++
	if s.unsatCI {
		return Unsat
	}
	s.backtrackTo(0)
	if s.propagate() != noReason {
		s.unsatCI = true
		return Unsat
	}

	var restarts int64
	conflictBudget := int64(100) * luby(1)
	var conflicts int64

	for {
		confl := s.propagate()
		if confl != noReason {
			s.Stats.Conflicts++
			if s.decisionLevel() <= len(assumptions) {
				s.Stats.AssumpConflicts++
			}
			conflicts++
			if s.decisionLevel() == 0 {
				s.unsatCI = true
				return Unsat
			}
			// Conflicts inside the assumption prefix are analyzed like any
			// other; if an assumption itself becomes false, the decide
			// branch below reports Unsat when it is re-reached.
			learnt, back := s.analyze(confl)
			s.backtrackTo(back)
			s.addLearnt(learnt)
			s.decayActivities()
			if conflicts >= conflictBudget {
				// Restart.
				restarts++
				s.Stats.Restarts++
				conflicts = 0
				conflictBudget = 100 * luby(restarts+1)
				s.backtrackTo(0)
			}
			if len(s.learnts) > s.maxLearn {
				s.reduceDB()
			}
			continue
		}

		// Decide: assumptions first, then VSIDS.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.vals[a] {
			case lTrue:
				// Already satisfied; open an empty decision level so the
				// index keeps advancing.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(a, noReason)
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			return Sat
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(MkLit(v, !s.phase[v]), noReason)
	}
}

func (s *Solver) addLearnt(learnt []Lit) {
	s.Stats.Learnt++
	if len(learnt) == 1 {
		s.enqueue(learnt[0], noReason)
		return
	}
	cref := s.allocClause(learnt, true)
	s.learnts = append(s.learnts, cref)
	s.watchClause(cref)
	s.bumpClause(cref)
	s.enqueue(learnt[0], cref)
}

// Value reports the model value of a variable after Sat.
func (s *Solver) Value(v Var) bool { return s.vals[MkLit(v, false)] == lTrue }

// LitValue reports the model value of a literal after Sat.
func (s *Solver) LitValue(l Lit) bool {
	if l.Neg() {
		return !s.Value(l.Var())
	}
	return s.Value(l.Var())
}

// Binary max-heap on variable activity.

func (s *Solver) heapLess(a, b Var) bool { return s.activity[a] > s.activity[b] }

func (s *Solver) heapInsert(v Var) {
	s.heapIdx[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(int(s.heapIdx[v]))
}

func (s *Solver) heapPop() Var {
	v := s.heap[0]
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	s.heapIdx[v] = -1
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.heapIdx[last] = 0
		s.heapDown(0)
	}
	return v
}

func (s *Solver) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(v, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.heapIdx[s.heap[i]] = int32(i)
		i = parent
	}
	s.heap[i] = v
	s.heapIdx[v] = int32(i)
}

func (s *Solver) heapDown(i int) {
	v := s.heap[i]
	for {
		left := 2*i + 1
		if left >= len(s.heap) {
			break
		}
		child := left
		if right := left + 1; right < len(s.heap) && s.heapLess(s.heap[right], s.heap[left]) {
			child = right
		}
		if !s.heapLess(s.heap[child], v) {
			break
		}
		s.heap[i] = s.heap[child]
		s.heapIdx[s.heap[i]] = int32(i)
		i = child
	}
	s.heap[i] = v
	s.heapIdx[v] = int32(i)
}

// heapFix re-heapifies after an activity bump.
func (s *Solver) heapFix(v Var) {
	if s.heapIdx[v] >= 0 {
		s.heapUp(int(s.heapIdx[v]))
	}
}
