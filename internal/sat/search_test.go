package sat

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"testing"
)

// pinnedSearchDigest is the SHA-256 of every verdict, Stats value and
// model that searchCorpus produces. The solver's clause storage may
// change, but its search may not: a storage change that alters one
// decision, propagation order, learnt clause or reduceDB victim moves
// this digest.
const pinnedSearchDigest = "f604bc90bfdd0039b6a4a9d7a17357031685c736eff6554c8f9f7aaab1363bba"

// searchLog folds solver outcomes into a digest and checks the storage
// invariants after every Solve.
type searchLog struct {
	t     *testing.T
	h     hash.Hash
	sat   int
	unsat int
	// binaryReasons counts Solves that left a binary learnt clause as a
	// reason on the trail; compactions counts Solves that shrank the arena.
	binaryReasons int
	compactions   int
}

func (g *searchLog) solve(s *Solver, assumptions ...Lit) Result {
	before := len(s.arena)
	r := s.Solve(assumptions...)
	fmt.Fprintf(g.h, "%v %+v\n", r, s.Stats)
	if r == Sat {
		g.sat++
		for v := 0; v < s.NumVars(); v++ {
			if s.Value(Var(v)) {
				g.h.Write([]byte{'1'})
			} else {
				g.h.Write([]byte{'0'})
			}
		}
		g.h.Write([]byte{'\n'})
	} else if r == Unsat {
		g.unsat++
	}
	if checkInvariants(g.t, s) {
		g.binaryReasons++
	}
	if len(s.arena) < before {
		g.compactions++
	}
	return r
}

// randClause draws a k-literal clause over the first n variables.
func randClause(rng *rand.Rand, n, k int) []Lit {
	c := make([]Lit, k)
	for j := range c {
		c[j] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
	}
	return c
}

func newVars(s *Solver, n int) {
	for i := 0; i < n; i++ {
		s.NewVar()
	}
}

// searchCorpus runs the fixed corpus behind pinnedSearchDigest: random
// 3-SAT near the 4.26 threshold, pigeonhole instances, an incremental
// run over guarded clause groups with assumption subsets and
// retirement, and mixed 2/3-SAT under a small learnt-clause cap, so
// reduceDB (and arena compaction) runs many times while binary learnt
// clauses are reasons.
func searchCorpus(g *searchLog) {
	// Random 3-SAT at the phase transition: SAT and UNSAT instances.
	for n := 60; n <= 180; n += 20 {
		rng := rand.New(rand.NewSource(int64(n)))
		s := New()
		newVars(s, n)
		for i := 0; i < int(4.26*float64(n)); i++ {
			s.AddClause(randClause(rng, n, 3)...)
		}
		g.solve(s)
	}

	// Pigeonhole PHP(p, p-1): its symmetry makes VSIDS ties common, so
	// the order in which analyze bumps a binary conflict clause's
	// variables shows in the search.
	for p := 5; p <= 7; p++ {
		s := New()
		newVars(s, p*(p-1))
		x := func(pigeon, hole int) Var { return Var(pigeon*(p-1) + hole) }
		for i := 0; i < p; i++ {
			var c []Lit
			for h := 0; h < p-1; h++ {
				c = append(c, MkLit(x(i, h), false))
			}
			s.AddClause(c...)
		}
		for h := 0; h < p-1; h++ {
			for i := 0; i < p; i++ {
				for j := i + 1; j < p; j++ {
					s.AddClause(MkLit(x(i, h), true), MkLit(x(j, h), true))
				}
			}
		}
		g.solve(s)
	}

	// Incremental: guarded groups, assumption subsets, Retire.
	{
		rng := rand.New(rand.NewSource(100))
		const n, groups, perGroup = 80, 8, 12
		s := New()
		newVars(s, n)
		for i := 0; i < 3*n; i++ {
			s.AddClause(randClause(rng, n, 3)...)
		}
		acts := make([]Lit, groups)
		for k := range acts {
			acts[k] = MkLit(s.NewVar(), false)
			for i := 0; i < perGroup; i++ {
				s.AddGuarded(acts[k], randClause(rng, n, 2+rng.Intn(2))...)
			}
		}
		for round := 0; round < 60; round++ {
			var assume []Lit
			for _, a := range acts {
				if rng.Intn(2) == 0 {
					assume = append(assume, a)
				}
			}
			for i := rng.Intn(3); i > 0; i-- {
				assume = append(assume, MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1))
			}
			g.solve(s, assume...)
			if round%15 == 14 {
				s.Retire(acts[round/15])
			}
		}
	}

	// A small learnt-clause cap: reduceDB and compaction run many times.
	for seed := int64(200); seed < 206; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 170
		s := New()
		s.maxLearn = 30
		newVars(s, n)
		for i := 0; i < 30; i++ {
			s.AddClause(randClause(rng, n, 2)...)
		}
		for i := 0; i < 660; i++ {
			s.AddClause(randClause(rng, n, 3)...)
		}
		for round := 0; round < 6; round++ {
			var assume []Lit
			for i := round % 3; i > 0; i-- {
				assume = append(assume, MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1))
			}
			g.solve(s, assume...)
		}
	}
}

// TestSearchPinned checks that the solver's search is exactly the
// pinned one, and that the clause storage keeps its invariants after
// every Solve of the corpus.
func TestSearchPinned(t *testing.T) {
	g := &searchLog{t: t, h: sha256.New()}
	searchCorpus(g)
	if g.sat == 0 || g.unsat == 0 {
		t.Fatalf("corpus gave %d SAT and %d UNSAT results; want both", g.sat, g.unsat)
	}
	if g.binaryReasons == 0 || g.compactions == 0 {
		t.Fatalf("corpus left a binary learnt reason after %d Solves and compacted in %d; want both", g.binaryReasons, g.compactions)
	}
	t.Logf("%d SAT, %d UNSAT; %d Solves left a binary learnt reason, %d compacted", g.sat, g.unsat, g.binaryReasons, g.compactions)
	if got := hex.EncodeToString(g.h.Sum(nil)); got != pinnedSearchDigest {
		t.Errorf("search digest = %s, want %s", got, pinnedSearchDigest)
	}
}

// TestBacktrackKeepsInvariants: a conflict-free Sat decides and implies
// every variable, and backtracking to level 0 afterwards must leave each
// of them unassigned, with both literal values undefined and back in the
// heap. (The corpus cannot show a backtrack that clears one literal's
// value: the stale value derails its first search.)
func TestBacktrackKeepsInvariants(t *testing.T) {
	s := New()
	newVars(s, 8)
	for v := Var(0); v < 8; v += 2 {
		s.AddClause(MkLit(v, false), MkLit(v+1, false))
	}
	if r := s.Solve(); r != Sat || s.Stats.Conflicts != 0 || s.decisionLevel() == 0 {
		t.Fatalf("Solve = %v after %d conflicts at level %d; want a conflict-free Sat above level 0", r, s.Stats.Conflicts, s.decisionLevel())
	}
	checkInvariants(t, s)
	s.backtrackTo(0)
	if len(s.trail) != 0 {
		t.Fatalf("trail %v left at level 0", s.trail)
	}
	checkInvariants(t, s)
}

// checkInvariants checks the solver's state after a Solve. The values: a
// variable's two literals hold opposite values when it is assigned and
// are both undefined otherwise, the assigned variables are exactly the
// trail's, every trail literal is true, every unassigned variable sits
// in the heap at its heapIdx, and every heap slot's variable has that
// slot as its heapIdx. The clause storage: every trail
// literal's reason clause contains it with all other literals false,
// every watcher points at a live clause through one of its first two
// literals, and the arena holds exactly the live clauses plus the
// deleted words that wasted counts. It reports whether the trail holds
// a literal implied by a binary learnt clause.
func checkInvariants(t *testing.T, s *Solver) (binaryLearntReason bool) {
	t.Helper()
	if len(s.vals) != 2*s.NumVars() {
		t.Fatalf("%d literal values for %d variables", len(s.vals), s.NumVars())
	}
	onTrail := make([]bool, s.NumVars())
	for _, l := range s.trail {
		if onTrail[l.Var()] {
			t.Fatalf("variable %d is on the trail twice", l.Var())
		}
		onTrail[l.Var()] = true
		if s.vals[l] != lTrue {
			t.Fatalf("trail literal %v has value %d, want true", l, s.vals[l])
		}
	}
	for v := Var(0); int(v) < s.NumVars(); v++ {
		pos, neg := s.vals[MkLit(v, false)], s.vals[MkLit(v, true)]
		if pos != -neg {
			t.Fatalf("variable %d: literal values %d and %d are not opposite", v, pos, neg)
		}
		if assigned := pos != lUndef; assigned != onTrail[v] {
			t.Fatalf("variable %d: assigned=%v but on the trail=%v", v, assigned, onTrail[v])
		}
		if i := s.heapIdx[v]; pos == lUndef && (i < 0 || int(i) >= len(s.heap) || s.heap[i] != v) {
			t.Fatalf("unassigned variable %d is not in the heap at its index %d", v, i)
		}
	}
	for i, v := range s.heap {
		if s.heapIdx[v] != int32(i) {
			t.Fatalf("heap slot %d holds variable %d, whose index is %d", i, v, s.heapIdx[v])
		}
	}

	live := map[int32]bool{}
	for _, cr := range s.clauses {
		live[cr] = true
	}
	for _, cr := range s.learnts {
		if live[cr] {
			t.Fatalf("clause %d listed twice", cr)
		}
		live[cr] = true
	}
	wasted := 0
	for cr := 0; cr < len(s.arena); cr += clauseWords(s.arena, cr) {
		deleted := s.arena[cr]&hdrDeleted != 0
		if deleted {
			wasted += clauseWords(s.arena, cr)
		}
		if deleted == live[int32(cr)] {
			t.Fatalf("clause %d: deleted=%v but listed=%v", cr, deleted, live[int32(cr)])
		}
		if learnt := s.arena[cr]&hdrLearnt != 0; !deleted && learnt != slices.Contains(s.learnts, int32(cr)) {
			t.Fatalf("clause %d: learnt flag %v disagrees with the learnt list", cr, learnt)
		}
		delete(live, int32(cr))
	}
	if len(live) != 0 {
		t.Fatalf("listed clauses %v are not clause headers in the arena", live)
	}
	if wasted != s.wasted {
		t.Fatalf("deleted clauses hold %d words, wasted counts %d", wasted, s.wasted)
	}

	for _, l := range s.trail {
		cr := s.reason[l.Var()]
		if cr == noReason {
			continue
		}
		ls := s.lits(cr)
		if !slices.Contains(ls, l) {
			t.Fatalf("reason %v of %v does not contain it", ls, l)
		}
		for _, q := range ls {
			if q != l && s.vals[q] != lFalse {
				t.Fatalf("reason %v of %v: %v is not false", ls, l, q)
			}
		}
		if len(ls) == 2 && s.isLearnt(cr) {
			binaryLearntReason = true
		}
	}

	watchers := map[int32]int{}
	for wl, ws := range s.watches {
		for _, w := range ws {
			cr := w.cref()
			if cr < 0 || int(cr) >= len(s.arena) || s.arena[cr]&hdrDeleted != 0 {
				t.Fatalf("watcher %+v in list %d points at no live clause", w, wl)
			}
			ls := s.lits(cr)
			if Lit(wl) != ls[0].Not() && Lit(wl) != ls[1].Not() {
				t.Fatalf("watcher in list %d points at clause %v outside its first two literals", wl, ls)
			}
			if w.binary() != (len(ls) == 2) {
				t.Fatalf("watcher %+v: binary flag on a %d-literal clause", w, len(ls))
			}
			if w.binary() && (w.blocker == Lit(wl).Not() || !slices.Contains(ls, w.blocker)) {
				t.Fatalf("binary watcher %+v in list %d: blocker is not the other literal of %v", w, wl, ls)
			}
			watchers[cr]++
		}
	}
	for _, cr := range append(slices.Clone(s.clauses), s.learnts...) {
		if watchers[cr] != 2 {
			t.Fatalf("clause %v has %d watchers, want 2", s.lits(cr), watchers[cr])
		}
	}
	return binaryLearntReason
}
