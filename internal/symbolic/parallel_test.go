package symbolic

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"runtime"
	"strings"
	"testing"

	"switchv/internal/p4/check"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
	"switchv/internal/testutil"
	"switchv/internal/workload"
	"switchv/models"
)

func renderPackets(pkts []TestPacket) string {
	var sb strings.Builder
	for _, p := range pkts {
		fmt.Fprintf(&sb, "%s|%d|%x\n", p.GoalKey, p.Port, p.Data)
	}
	return sb.String()
}

// generationDigest pins a generation's whole output: the first 16 hex
// digits of a SHA-256 over every packet (goal key, port and bytes, in
// canonical order) followed by the Report's JSON. A change that moves
// it changes a packet or a counter (SAT search, CNF, slicing, pruning);
// one that only changes how fast they are computed leaves it alone.
func generationDigest(t *testing.T, pkts []TestPacket, rep Report) string {
	t.Helper()
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte(renderPackets(pkts)))
	h.Write(js)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGeneratorWorkerCountInvariant is the determinism contract: Run
// solves up to GOMAXPROCS shards at once, and the packet set AND the
// report must be bit-identical whatever that count is. Both workloads
// reach the sharded phase with at least two shards, so at GOMAXPROCS 2
// and 4 shard solvers really do run concurrently. The GOMAXPROCS-1 run
// must also match its pinned generationDigest, each of its packets must
// hit its goal in the reference simulator (checkHits), and a concrete
// search must reach none of its unreachable table goals
// (searchUnreachable).
func TestGeneratorWorkerCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	routing := models.Middleblock()
	routingStore := pdpi.NewStore()
	testutil.RoutingFixture(routing, routingStore)
	wan := models.MustLoad("wan")
	wanStore := pdpi.NewStore()
	for _, e := range workload.MustEntries(wan, 300, 42) {
		if err := wanStore.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		prog   *ir.Program
		store  *pdpi.Store
		gopts  GenOptions
		digest string
	}{
		{"routing", routing, routingStore, GenOptions{Mode: CoverBranches, Enriched: true, DisableWitness: true}, "45e1740aa5486339"},
		{"wan-300", wan, wanStore, GenOptions{Mode: CoverEntries, Enriched: true}, "d1316aec37b87d8f"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var p1 string
			var r1 Report
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				gen, err := NewGenerator(c.prog, c.store, Options{}, c.gopts)
				if err != nil {
					t.Fatal(err)
				}
				pkts, rep, err := gen.Run()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Shards < 2 {
					t.Fatalf("GOMAXPROCS %d: %d shards, want at least 2 so that shards run concurrently", procs, rep.Shards)
				}
				if procs == 1 {
					p1, r1 = renderPackets(pkts), rep
					if got := generationDigest(t, pkts, rep); got != c.digest {
						t.Errorf("generation digest %s, want %s", got, c.digest)
					}
					checkHits(t, c.prog, c.store, pkts)
					searchUnreachable(t, c.prog, c.store, gen.GoalKeys(), pkts)
					continue
				}
				if renderPackets(pkts) != p1 {
					t.Errorf("GOMAXPROCS %d: packet set differs from GOMAXPROCS 1", procs)
				}
				if rep != r1 {
					t.Errorf("GOMAXPROCS %d: report differs from GOMAXPROCS 1:\n  1: %+v\n  %d: %+v", procs, r1, procs, rep)
				}
			}
		})
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
	parPkts, parRep, err := GeneratePacketsParallel(prog, store, Options{}, GenOptions{Mode: CoverBranches})
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
	pkts, rep, err := GeneratePacketsParallel(prog, store, Options{}, GenOptions{Mode: CoverEntries})
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
	gopts := GenOptions{Mode: CoverBranches, Enriched: true, Cache: cache}

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

// TestGenerationGates holds the data-plane generator's deterministic
// gates on the seed-42 middleblock sets of 150 and 798 entries (the
// latter is Table 3 Inst1), in CoverBranches mode with enriched goals:
//
//   - the exact SMT-check, pruned, witnessed and witness-unsat counts,
//     which also keep the large set inside its 40-check budget;
//   - pruning and witnesses avoid at least 40% of the serial path's one
//     check per goal;
//   - slicing changes no verdict: the covered goal set is identical with
//     DisableSlicing;
//   - the sliced run's packets and report match a pinned
//     generationDigest, every packet hits its goal in the reference
//     simulator (checkHits), and a concrete search reaches none of the
//     unreachable table goals (searchUnreachable).
//
// Both sets reach the sharded phase with one shard, so the worker-count
// identity is held on other workloads by
// TestGeneratorWorkerCountInvariant. The wall-clock gate (at least 2x
// over the serial path on 4 or more CPUs) stays in BenchmarkDataPlaneGen.
func TestGenerationGates(t *testing.T) {
	prog := models.Middleblock()
	for _, c := range []struct {
		entries                                    int
		smtChecks, pruned, witnessed, witnessUnsat int
		digest                                     string
	}{
		{150, 16, 80, 96, 1, "02e0481881dd341f"},
		{798, 17, 271, 548, 5, "42d101aff32d6099"},
	} {
		t.Run(fmt.Sprint(c.entries), func(t *testing.T) {
			store := pdpi.NewStore()
			for _, e := range workload.MustEntries(prog, c.entries, 42) {
				if err := store.Insert(e); err != nil {
					t.Fatal(err)
				}
			}
			run := func(gopts GenOptions) ([]TestPacket, Report, []string) {
				t.Helper()
				gopts.Mode, gopts.Enriched = CoverBranches, true
				gen, err := NewGenerator(prog, store, Options{}, gopts)
				if err != nil {
					t.Fatal(err)
				}
				pkts, rep, err := gen.Run()
				if err != nil {
					t.Fatal(err)
				}
				return pkts, rep, gen.GoalKeys()
			}
			p1, r1, universe := run(GenOptions{})
			if r1.SMTChecks != c.smtChecks || r1.Pruned != c.pruned ||
				r1.Witnessed != c.witnessed || r1.WitnessUnsat != c.witnessUnsat {
				t.Errorf("%d SMT checks, %d pruned, %d witnessed, %d witness-unsat; want %d, %d, %d, %d",
					r1.SMTChecks, r1.Pruned, r1.Witnessed, r1.WitnessUnsat,
					c.smtChecks, c.pruned, c.witnessed, c.witnessUnsat)
			}
			if lim := r1.Goals * 6 / 10; r1.SMTChecks > lim {
				t.Errorf("%d SMT checks for %d goals, want <= %d", r1.SMTChecks, r1.Goals, lim)
			}
			if got := generationDigest(t, p1, r1); got != c.digest {
				t.Errorf("generation digest %s, want %s", got, c.digest)
			}
			checkHits(t, prog, store, p1)
			searchUnreachable(t, prog, store, universe, p1)

			pu, ru, _ := run(GenOptions{DisableSlicing: true})
			if ru.SlicedAsserts != 0 || ru.SlicedBits != 0 {
				t.Errorf("unsliced run reported slice metrics: %+v", ru)
			}
			covered := func(pkts []TestPacket) map[string]bool {
				m := map[string]bool{}
				for _, p := range pkts {
					m[p.GoalKey] = true
				}
				return m
			}
			if got, want := covered(pu), covered(p1); !maps.Equal(got, want) {
				t.Errorf("covered goals differ without slicing: %d unsliced vs %d sliced", len(got), len(want))
			}
		})
	}
}

// TestGenerationChecksOtherModes runs checkHits and searchUnreachable on
// the two seed-42 generations at scale that the gates above leave out:
// middleblock-798 in entries mode, as a dp-cold-inst1 round generates it,
// and wan-700 in branches mode. Both generate as a round does, with
// enriched goals and the preflight's unreachable tables. It pins no count
// or digest. The two run in parallel, which keeps the test's wall time
// near the slower generation's.
func TestGenerationChecksOtherModes(t *testing.T) {
	for _, c := range []struct {
		model   string
		entries int
		mode    CoverageMode
	}{
		{"middleblock", 798, CoverEntries},
		{"wan", 700, CoverBranches},
	} {
		t.Run(fmt.Sprintf("%s-%d", c.model, c.entries), func(t *testing.T) {
			t.Parallel()
			prog := models.MustLoad(c.model)
			store := pdpi.NewStore()
			for _, e := range workload.MustEntries(prog, c.entries, 42) {
				if err := store.Insert(e); err != nil {
					t.Fatal(err)
				}
			}
			gen, err := NewGenerator(prog, store, Options{}, GenOptions{
				Mode: c.mode, Enriched: true, UnreachableTables: check.Cached(prog).UnreachableSet(),
			})
			if err != nil {
				t.Fatal(err)
			}
			pkts, _, err := gen.Run()
			if err != nil {
				t.Fatal(err)
			}
			checkHits(t, prog, store, pkts)
			searchUnreachable(t, prog, store, gen.GoalKeys(), pkts)
		})
	}
}
