package symbolic

import (
	"testing"

	"switchv/internal/p4/check"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/parser"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
)

// deadLPMModel is an LPM-heavy model with one table the static
// preflight proves unreachable: dead_lpm sits behind a
// constant-false guard, and its apply comes last so its goals land at
// the end of the canonical goal order.
const deadLPMModel = `
const bit<8> GEN = 1;

header ethernet_t { bit<48> dst_addr; bit<48> src_addr; bit<16> ether_type; }
header ipv4_t { bit<8> ttl; bit<8> protocol; bit<32> dst_addr; }
struct headers_t { ethernet_t ethernet; ipv4_t ipv4; }
struct meta_t { bit<8> mode; }

control ingress(inout headers_t headers, inout meta_t meta,
                inout standard_metadata_t standard_metadata) {
  action drop() { mark_to_drop(); }
  action fwd(bit<16> port) { set_egress_port(port); }

  table live_lpm {
    key = { headers.ipv4.dst_addr : lpm @name("ipv4_dst"); }
    actions = { drop; fwd; }
    const default_action = drop;
  }
  table dead_lpm {
    key = { headers.ipv4.dst_addr : lpm @name("ipv4_dst"); }
    actions = { drop; fwd; }
    const default_action = drop;
  }

  apply {
    if (headers.ipv4.isValid()) {
      live_lpm.apply();
    }
    if (GEN == 2) {
      dead_lpm.apply();
    }
  }
}
`

func deadLPMFixture(t *testing.T) (*ir.Program, *pdpi.Store) {
	t.Helper()
	ast, err := parser.Parse(deadLPMModel)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Compile(ast)
	if err != nil {
		t.Fatal(err)
	}
	store := pdpi.NewStore()
	for _, name := range []string{"live_lpm", "dead_lpm"} {
		tbl, _ := prog.TableByName(name)
		fwd, _ := prog.ActionByName("fwd")
		for i, pfx := range []struct {
			v    uint64
			plen int
		}{{0x0a000000, 8}, {0x0a630000, 16}, {0x0a630100, 24}} {
			err := store.Insert(&pdpi.Entry{
				Table:   tbl,
				Matches: []pdpi.Match{{Key: "ipv4_dst", Kind: ir.MatchLPM, Value: value.New(pfx.v, 32), PrefixLen: pfx.plen}},
				Action:  &pdpi.ActionInvocation{Action: fwd, Args: []value.V{value.New(uint64(11+i), 16)}},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return prog, store
}

// TestPrecheckGoalPruning is the acceptance experiment: on a model with
// an unreachable table, feeding the preflight's proof set into the
// generator skips every goal on that table — fewer solver checks, and
// bit-identical packets for all reachable goals (the skipped goals come
// last in canonical order, so the solver's state at every reachable
// goal's check is unchanged).
func TestPrecheckGoalPruning(t *testing.T) {
	prog, store := deadLPMFixture(t)

	rep := check.Check(prog)
	if rep.HasErrors() {
		t.Fatalf("fixture has error findings:\n%s", rep.Text())
	}
	dead := rep.UnreachableSet()
	if !dead["dead_lpm"] || dead["live_lpm"] {
		t.Fatalf("unreachable set = %v", dead)
	}

	base := GenOptions{Mode: CoverEntries, Shards: 1}
	basePkts, baseRep, err := GeneratePacketsParallel(prog, store, Options{}, base)
	if err != nil {
		t.Fatal(err)
	}
	pruned := base
	pruned.UnreachableTables = dead
	prunedPkts, prunedRep, err := GeneratePacketsParallel(prog, store, Options{}, pruned)
	if err != nil {
		t.Fatal(err)
	}

	// dead_lpm contributes 3 entry goals + 1 default goal, each an
	// unavoidable UNSAT check for the baseline (no SAT model can claim
	// an unsatisfiable goal).
	const deadGoals = 4
	if prunedRep.Precheck != deadGoals {
		t.Errorf("Precheck = %d, want %d", prunedRep.Precheck, deadGoals)
	}
	if baseRep.Precheck != 0 {
		t.Errorf("baseline Precheck = %d, want 0", baseRep.Precheck)
	}
	if got := baseRep.SMTChecks - prunedRep.SMTChecks; got != deadGoals {
		t.Errorf("solver-check reduction = %d (%d -> %d), want %d",
			got, baseRep.SMTChecks, prunedRep.SMTChecks, deadGoals)
	}
	// Same universe, same verdicts: the baseline also finds the dead
	// goals unreachable, just the expensive way.
	if prunedRep.Goals != baseRep.Goals || prunedRep.Unreachable != baseRep.Unreachable ||
		prunedRep.Covered != baseRep.Covered {
		t.Errorf("verdicts differ: pruned %+v vs baseline %+v", prunedRep, baseRep)
	}

	// Bit-identical packets for every reachable goal.
	if renderPackets(prunedPkts) != renderPackets(basePkts) {
		t.Errorf("packets differ:\npruned:\n%sbaseline:\n%s",
			renderPackets(prunedPkts), renderPackets(basePkts))
	}
	for _, p := range prunedPkts {
		if GoalTable(p.GoalKey) == "dead_lpm" {
			t.Errorf("packet generated for dead-table goal %s", p.GoalKey)
		}
	}
}

// TestPrecheckWithCache: precheck-decided goals bypass the cache in
// both directions — nothing stored for them, and a warm cache still
// reports them as precheck-decided, not cached.
func TestPrecheckWithCache(t *testing.T) {
	prog, store := deadLPMFixture(t)
	dead := check.Check(prog).UnreachableSet()

	cache := NewCache()
	opts := GenOptions{Mode: CoverEntries, Shards: 1, Cache: cache, UnreachableTables: dead}
	_, cold, err := GeneratePacketsParallel(prog, store, Options{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := GeneratePacketsParallel(prog, store, Options{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Precheck != 4 || warm.Precheck != 4 {
		t.Errorf("Precheck cold=%d warm=%d, want 4", cold.Precheck, warm.Precheck)
	}
	if warm.SMTChecks != 0 {
		t.Errorf("warm run spent %d checks, want 0", warm.SMTChecks)
	}
	if warm.Cached != cold.Goals-4 {
		t.Errorf("warm Cached = %d, want %d", warm.Cached, cold.Goals-4)
	}
}
