package fuzzer

import (
	"reflect"
	"testing"

	"switchv/internal/p4/constraints"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4rt"
	"switchv/models"
)

func newFuzzer(t *testing.T, opts Options) (*Fuzzer, *p4info.Info) {
	t.Helper()
	info := p4info.New(models.Middleblock())
	return New(info, opts), info
}

func TestGenerateEntryIsSyntacticallyValid(t *testing.T) {
	f, _ := newFuzzer(t, Options{Seed: 1})
	prog := models.Middleblock()
	for _, tbl := range prog.Tables {
		for i := 0; i < 50; i++ {
			e, err := f.GenerateEntry(tbl)
			if err != nil {
				t.Fatalf("%s: %v", tbl.Name, err)
			}
			if err := e.Validate(); err != nil {
				t.Fatalf("%s: generated invalid entry: %v (%s)", tbl.Name, err, e)
			}
		}
	}
}

func TestBatchesAreOrderIndependent(t *testing.T) {
	f, info := newFuzzer(t, Options{Seed: 2, UpdatesPerRequest: 50})
	for batch := 0; batch < 40; batch++ {
		req, meta, err := f.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if len(meta) != len(req.Updates) {
			t.Fatalf("meta length mismatch")
		}
		// Recheck the invariant with a fresh tracker: no two updates in
		// the batch may conflict.
		tracker := newBatchTracker()
		for i := range req.Updates {
			facts, ok := f.decompose(&req.Updates[i])
			if !ok {
				continue // undecodable updates carry no dependencies
			}
			if i > 0 && tracker.conflicts(&facts) {
				t.Fatalf("batch %d: update %d conflicts with an earlier one", batch, i)
			}
			tracker.note(&facts)
		}
		// Keep the pool realistic: pretend the switch accepted everything
		// decodable and applicable.
		for i := range req.Updates {
			f.NoteAccepted(req.Updates[i])
		}
	}
	_ = info
}

func TestMutationsProduceInvalidUpdates(t *testing.T) {
	f, info := newFuzzer(t, Options{Seed: 3, MutateFraction: 1.0, DeleteFraction: 0.01, ModifyFraction: 0.01})
	mutated := 0
	syntacticallyBad := 0
	for i := 0; i < 1000; i++ {
		gu, err := f.GenerateUpdate()
		if err != nil {
			t.Fatal(err)
		}
		if gu.Mutation == "" {
			continue
		}
		mutated++
		if _, err := p4rt.FromWire(info, &gu.Update.Entry); err != nil {
			syntacticallyBad++
		}
	}
	if mutated < 800 {
		t.Errorf("only %d/1000 updates mutated with MutateFraction 1.0", mutated)
	}
	// Most mutations are syntactically invalid, but some (InvalidReference,
	// DuplicateInsert, DeleteNonExistent, NonCanonical that decodes...)
	// stay well-formed on purpose.
	if syntacticallyBad == 0 || syntacticallyBad == mutated {
		t.Errorf("mutations not diverse: %d/%d syntactically bad", syntacticallyBad, mutated)
	}
	if len(f.PerMutation) < 8 {
		t.Errorf("only %d mutation kinds fired: %v", len(f.PerMutation), f.PerMutation)
	}
}

func TestTableRanks(t *testing.T) {
	f, _ := newFuzzer(t, Options{})
	if f.TableRank("vrf_table") != 0 {
		t.Errorf("vrf rank = %d", f.TableRank("vrf_table"))
	}
	if f.TableRank("ipv4_table") <= f.TableRank("nexthop_table") {
		t.Errorf("ipv4 (%d) should rank above nexthop (%d)",
			f.TableRank("ipv4_table"), f.TableRank("nexthop_table"))
	}
}

func TestConstraintAwareCompliance(t *testing.T) {
	prog := models.Middleblock()
	countCompliant := func(aware bool) (compliant, constrained int) {
		f := New(p4info.New(prog), Options{Seed: 7, ConstraintAware: aware, MutateFraction: 0.0001})
		for i := 0; i < 2000; i++ {
			gu, err := f.GenerateUpdate()
			if err != nil {
				t.Fatal(err)
			}
			if gu.Mutation != "" || gu.Update.Type != p4rt.Insert {
				continue
			}
			e, err := p4rt.FromWire(p4info.New(prog), &gu.Update.Entry)
			if err != nil {
				continue
			}
			if e.Table.EntryRestriction == "" {
				continue
			}
			constrained++
			if ok, err := constraints.CheckEntry(e); err == nil && ok {
				compliant++
			}
			f.NoteAccepted(gu.Update)
		}
		return
	}
	nAware, totAware := countCompliant(true)
	nPlain, totPlain := countCompliant(false)
	awareRate := float64(nAware) / float64(totAware)
	plainRate := float64(nPlain) / float64(totPlain)
	t.Logf("compliance: aware %.0f%% (%d/%d), plain %.0f%% (%d/%d)",
		100*awareRate, nAware, totAware, 100*plainRate, nPlain, totPlain)
	if awareRate < 0.95 {
		t.Errorf("constraint-aware compliance = %.2f, want >= 0.95", awareRate)
	}
	if awareRate <= plainRate {
		t.Errorf("constraint-aware (%f) not better than plain (%f)", awareRate, plainRate)
	}
}

func TestConstraintViolationMutation(t *testing.T) {
	info := p4info.New(models.Middleblock())
	f := New(info, Options{Seed: 9, ConstraintAware: true, MutateFraction: 1.0})
	hits := 0
	for i := 0; i < 3000 && hits < 20; i++ {
		gu, err := f.GenerateUpdate()
		if err != nil {
			t.Fatal(err)
		}
		if gu.Mutation != "ConstraintViolation" {
			if gu.Update.Type == p4rt.Insert && gu.Mutation == "" {
				f.NoteAccepted(gu.Update)
			}
			continue
		}
		hits++
		e, err := p4rt.FromWire(info, &gu.Update.Entry)
		if err != nil {
			t.Fatalf("ConstraintViolation produced a syntactically invalid entry: %v", err)
		}
		ok, err := constraints.CheckEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("ConstraintViolation entry is compliant: %s", e)
		}
	}
	if hits < 5 {
		t.Errorf("ConstraintViolation fired only %d times", hits)
	}
}

// TestDisabledFractionSentinel is the regression test for the "explicit
// zero" bug: Options treated MutateFraction == 0 (and Delete/Modify) as
// unset and silently substituted the default, so a pure-valid or
// delete-free campaign was impossible to configure.
func TestDisabledFractionSentinel(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		o := Options{}
		o.setDefaults()
		if o.MutateFraction != 0.3 || o.DeleteFraction != 0.15 || o.ModifyFraction != 0.1 {
			t.Fatalf("defaults = %v/%v/%v", o.MutateFraction, o.DeleteFraction, o.ModifyFraction)
		}
	})
	t.Run("disabled means zero", func(t *testing.T) {
		o := Options{MutateFraction: Disabled, DeleteFraction: Disabled, ModifyFraction: Disabled}
		o.setDefaults()
		if o.MutateFraction != 0 || o.DeleteFraction != 0 || o.ModifyFraction != 0 {
			t.Fatalf("Disabled resolved to %v/%v/%v, want 0/0/0",
				o.MutateFraction, o.DeleteFraction, o.ModifyFraction)
		}
	})
	t.Run("pure valid campaign", func(t *testing.T) {
		f, _ := newFuzzer(t, Options{Seed: 11, MutateFraction: Disabled,
			DeleteFraction: Disabled, ModifyFraction: Disabled})
		for i := 0; i < 500; i++ {
			gu, err := f.GenerateUpdate()
			if err != nil {
				t.Fatal(err)
			}
			if gu.Mutation != "" {
				t.Fatalf("update %d mutated (%s) with MutateFraction Disabled", i, gu.Mutation)
			}
			if gu.Update.Type != p4rt.Insert {
				t.Fatalf("update %d is %v with Delete/ModifyFraction Disabled", i, gu.Update.Type)
			}
			f.NoteAccepted(gu.Update)
		}
		if f.MutatedCount != 0 {
			t.Fatalf("MutatedCount = %d, want 0", f.MutatedCount)
		}
	})
}

// TestGuidedScheduleIsDeterministic is the seeded determinism guarantee:
// two coverage-guided fuzzers with the same seed (and therefore the same
// evolving coverage state) must emit identical batches.
func TestGuidedScheduleIsDeterministic(t *testing.T) {
	mk := func() *Fuzzer {
		f, _ := newFuzzer(t, Options{Seed: 21, CoverageGuided: true, UpdatesPerRequest: 40})
		return f
	}
	f1, f2 := mk(), mk()
	for batch := 0; batch < 20; batch++ {
		r1, m1, err := f1.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		r2, m2, err := f2.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("batch %d diverged", batch)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("batch %d metadata diverged", batch)
		}
		// Keep both coverage states in lockstep, as a real campaign would.
		for i := range r1.Updates {
			f1.NoteAccepted(r1.Updates[i])
			f2.NoteAccepted(r2.Updates[i])
		}
	}
}

func TestUnknownTableUpdatesAreTracked(t *testing.T) {
	// Mutated updates that fail to decode must not break batching.
	f, _ := newFuzzer(t, Options{Seed: 4, MutateFraction: 0.9, UpdatesPerRequest: 30})
	for i := 0; i < 10; i++ {
		if _, _, err := f.NextBatch(); err != nil {
			t.Fatal(err)
		}
	}
}
