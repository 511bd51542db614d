package symbolic

import (
	"fmt"
	"strings"
	"testing"

	"switchv/internal/p4/pdpi"
	"switchv/internal/testutil"
	"switchv/models"
)

func genFixture(t *testing.T) (*pdpi.Store, func(GenOptions) ([]TestPacket, Report)) {
	t.Helper()
	prog := models.Middleblock()
	store := pdpi.NewStore()
	testutil.RoutingFixture(prog, store)
	return store, func(gopts GenOptions) ([]TestPacket, Report) {
		t.Helper()
		pkts, rep, err := GeneratePacketsParallel(prog, store, Options{}, gopts)
		if err != nil {
			t.Fatal(err)
		}
		return pkts, rep
	}
}

func renderPackets(pkts []TestPacket) string {
	var sb strings.Builder
	for _, p := range pkts {
		fmt.Fprintf(&sb, "%s|%d|%x\n", p.GoalKey, p.Port, p.Data)
	}
	return sb.String()
}

// TestGeneratorWorkerCountInvariant is the determinism contract: the
// packet set AND the report must be bit-identical for any worker count.
func TestGeneratorWorkerCountInvariant(t *testing.T) {
	_, run := genFixture(t)
	base := GenOptions{Mode: CoverBranches, Enriched: true}
	p1, r1 := run(base)
	for _, workers := range []int{2, 4, 13} {
		opts := base
		opts.Workers = workers
		pn, rn := run(opts)
		if renderPackets(pn) != renderPackets(p1) {
			t.Fatalf("workers=%d: packet set differs from workers=1", workers)
		}
		if rn != r1 {
			t.Fatalf("workers=%d: report %+v differs from workers=1 %+v", workers, rn, r1)
		}
	}
}

// TestGeneratorMatchesSequential checks that the parallel engine covers
// the same goal universe with the same verdicts as the sequential
// baseline: identical covered/unreachable goal keys (the packets may
// legitimately differ — pruning reuses models).
func TestGeneratorMatchesSequential(t *testing.T) {
	prog := models.Middleblock()
	store := pdpi.NewStore()
	testutil.RoutingFixture(prog, store)
	ex, err := New(prog, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	goals := ex.Goals(CoverBranches)
	seqPkts, seqCovered, seqUnreachable := solveEach(t, ex, goals)
	parPkts, parRep, err := GeneratePacketsParallel(prog, store, Options{}, GenOptions{Mode: CoverBranches, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if parRep.Goals != len(goals) || parRep.Covered != seqCovered || parRep.Unreachable != seqUnreachable {
		t.Fatalf("verdicts differ: parallel %+v vs sequential %d goals, %d covered, %d unreachable",
			parRep, len(goals), seqCovered, seqUnreachable)
	}
	covered := func(pkts []TestPacket) map[string]bool {
		m := map[string]bool{}
		for _, p := range pkts {
			m[p.GoalKey] = true
		}
		return m
	}
	seqSet, parSet := covered(seqPkts), covered(parPkts)
	for k := range seqSet {
		if !parSet[k] {
			t.Errorf("goal %s covered sequentially but not in parallel", k)
		}
	}
	for k := range parSet {
		if !seqSet[k] {
			t.Errorf("goal %s covered in parallel but not sequentially", k)
		}
	}
	if parRep.SMTChecks >= len(goals) {
		t.Errorf("pruning saved nothing: parallel %d checks vs sequential %d", parRep.SMTChecks, len(goals))
	}
}

// TestPrunedPacketsSatisfyGoals replays every generated packet —
// including the pruned ones that reuse another goal's model — through
// the reference simulator and checks the goal's construct is hit.
func TestPrunedPacketsSatisfyGoals(t *testing.T) {
	prog := models.Middleblock()
	store := pdpi.NewStore()
	testutil.RoutingFixture(prog, store)
	pkts, rep, err := GeneratePacketsParallel(prog, store, Options{}, GenOptions{Mode: CoverEntries, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pruned == 0 {
		t.Fatalf("expected some pruned goals on the fixture: %+v", rep)
	}
	checkHits(t, prog, store, pkts)
}

// TestGeneratorPerGoalCache checks the incremental-caching contract: a
// repeat run is served entirely from the cache, and churn in a
// later-applied table re-solves only the goals it can reach.
func TestGeneratorPerGoalCache(t *testing.T) {
	prog := models.Middleblock()
	store := pdpi.NewStore()
	testutil.RoutingFixture(prog, store)
	cache := NewCache()
	gopts := GenOptions{Mode: CoverBranches, Enriched: true, Cache: cache, Workers: 2}

	cold, coldRep, err := GeneratePacketsParallel(prog, store, Options{}, gopts)
	if err != nil {
		t.Fatal(err)
	}
	if coldRep.Cached != 0 {
		t.Fatalf("cold run hit the cache: %+v", coldRep)
	}

	warm, warmRep, err := GeneratePacketsParallel(prog, store, Options{}, gopts)
	if err != nil {
		t.Fatal(err)
	}
	if warmRep.Cached != warmRep.Goals || warmRep.SMTChecks != 0 {
		t.Fatalf("warm run not fully cached: %+v", warmRep)
	}
	if renderPackets(warm) != renderPackets(cold) {
		t.Fatal("warm packets differ from cold packets")
	}

	// Churn the last-applied table (the ACL stage): goals on tables
	// applied strictly before it keep their cache entries.
	acl, ok := prog.TableByName("acl_ingress_table")
	if !ok {
		t.Fatal("no acl_ingress_table")
	}
	for _, e := range store.Entries(acl.Name) {
		if err := store.Delete(e); err != nil {
			t.Fatal(err)
		}
		break
	}
	churnRep := Report{}
	if _, churnRep, err = GeneratePacketsParallel(prog, store, Options{}, gopts); err != nil {
		t.Fatal(err)
	}
	if churnRep.Cached == 0 {
		t.Fatalf("later-table churn invalidated every goal: %+v", churnRep)
	}
	if churnRep.Cached == churnRep.Goals {
		t.Fatalf("later-table churn invalidated nothing: %+v", churnRep)
	}
}
