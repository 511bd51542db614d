package symbolic

import (
	"testing"

	"switchv/internal/bmv2"
	"switchv/internal/p4/dataflow"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
	"switchv/internal/testutil"
	"switchv/models"
)

// TestNonCanonicalTernaryMatchesNothing: a ternary entry whose value has
// bits outside its mask matches no packet (the interpreter compares
// fv&Mask == Value), so it shadows nothing. Entry A below is such an
// entry above B; Validate rejects A and no conforming switch stores it,
// but the generator's API accepts it. With and without the witness
// pre-pass, B is covered and A is unreachable.
func TestNonCanonicalTernaryMatchesNothing(t *testing.T) {
	prog := models.Middleblock()
	store := pdpi.NewStore()
	testutil.RoutingFixture(prog, store)
	acl, _ := prog.TableByName("acl_ingress_table")
	drop, _ := prog.ActionByName("acl_drop")
	entry := func(val, mask uint64, prio int32) *pdpi.Entry {
		return &pdpi.Entry{
			Table: acl,
			Matches: []pdpi.Match{
				{Key: "ip_protocol", Kind: ir.MatchTernary, Value: value.New(val, 8), Mask: value.New(mask, 8)},
			},
			Priority: prio,
			Action:   &pdpi.ActionInvocation{Action: drop},
		}
	}
	a, b := entry(0x16, 0x0f, 20), entry(0x06, 0xff, 10)
	if a.Validate() == nil {
		t.Fatal("Validate accepts a ternary value outside its mask")
	}
	for _, e := range []*pdpi.Entry{a, b} {
		if err := store.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, disable := range []bool{false, true} {
		pkts, rep, err := GeneratePacketsParallel(prog, store, Options{}, GenOptions{Mode: CoverEntries, DisableWitness: disable})
		if err != nil {
			t.Fatal(err)
		}
		covered := map[string]bool{}
		for _, p := range pkts {
			covered[p.GoalKey] = true
		}
		if !covered[TraceKeyEntry(acl.Name, b)] {
			t.Errorf("DisableWitness=%v: entry B not covered (%+v)", disable, rep)
		}
		if covered[TraceKeyEntry(acl.Name, a)] {
			t.Errorf("DisableWitness=%v: entry A covered", disable)
		}
		checkHits(t, prog, store, pkts)
	}
}

// TestParserSpecMatchesReferenceParser ties the parser axioms, which
// assertParserAxioms builds from dataflow's parser spec, to the parser
// they model: for every header the spec lets a model's parser reach, a
// packet solved to carry it parses in the reference interpreter with
// exactly the validity bits the model chose, for every chain header.
func TestParserSpecMatchesReferenceParser(t *testing.T) {
	for _, name := range []string{"middleblock", "wan"} {
		prog := models.MustLoad(name)
		ex, err := New(prog, pdpi.NewStore(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		chain := dataflow.ParserOf(prog).Chain()
		valid := func(header string) *ir.Field {
			f, ok := prog.HeaderField(header + ".$valid")
			if !ok {
				t.Fatalf("%s: no validity bit for %s", name, header)
			}
			return f
		}
		for _, spec := range chain {
			b := ex.Builder()
			goal := Goal{Key: "valid:" + spec.Name, Cond: b.Eq(ex.Input(valid(spec.Name)), b.ConstUint(1, 1))}
			pkt, model, err := ex.solve(goal, false)
			if err != nil {
				t.Fatal(err)
			}
			if pkt == nil {
				t.Errorf("%s: no packet carries %s", name, spec.Name)
				continue
			}
			fields, _, err := bmv2.ParseFields(prog, pkt.Data)
			if err != nil {
				t.Errorf("%s: %s packet %x does not parse: %v", name, spec.Name, pkt.Data, err)
				continue
			}
			for _, h := range chain {
				f := valid(h.Name)
				if got, want := fields[f.ID], model.Var(ex.Input(f)); !got.Equal(want) {
					t.Errorf("%s: %s packet %x: parser says %s.$valid = %v, model %v",
						name, spec.Name, pkt.Data, h.Name, got, want)
				}
			}
		}
	}
}
