package switchv

import (
	"fmt"
	"testing"

	"switchv/internal/bmv2"
	"switchv/internal/p4/check"
	"switchv/internal/p4/compile"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/switchsim"
	"switchv/internal/symbolic"
	"switchv/internal/testutil"
	"switchv/models"
)

// TestEngineConstructionsPerRound is the regression test for the
// per-packet-simulator bug: the data-plane compare phase must build one
// engine per round, not one per packet.
func TestEngineConstructionsPerRound(t *testing.T) {
	h, _ := newHarness(t, "middleblock")
	before := EngineConstructions()
	rep, err := h.RunDataPlane(fixtureEntries("middleblock"), DataPlaneOptions{Coverage: symbolic.CoverBranches})
	if err != nil {
		t.Fatal(err)
	}
	if got := EngineConstructions() - before; got != 1 {
		t.Errorf("%d engine constructions for %d packets, want one per round", got, rep.Packets)
	}
	if rep.Packets < 2 {
		t.Fatalf("campaign too shallow to distinguish per-round from per-packet: %d packets", rep.Packets)
	}
}

// requireEngineParity installs the fixtures the way RunDataPlane does
// (install order, into a fresh store), generates its packets with its
// generator options, adds the background traffic mix, and requires the
// interpreter and the compiled pipeline — each reset per packet, as in
// the compare phase — to return identical behavior sets, traces
// included. Identical behavior sets make every data-plane verdict and
// every harvested coverage hit independent of the engine.
func requireEngineParity(t *testing.T, role string, fixtures []func(*ir.Program, *pdpi.Store)) {
	t.Helper()
	prog := models.MustLoad(role)
	fixed := pdpi.NewStore()
	for _, fix := range fixtures {
		fix(prog, fixed)
	}
	store := pdpi.NewStore()
	for _, e := range testutil.InstallOrder(p4info.New(prog), fixed) {
		if err := store.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	packets, _, err := symbolic.GeneratePacketsParallel(prog, store, symbolic.Options{}, symbolic.GenOptions{
		Mode:              symbolic.CoverBranches,
		Enriched:          true,
		UnreachableTables: check.Cached(prog).UnreachableSet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]bmv2.Input, 0, len(packets)+3)
	for _, p := range packets {
		inputs = append(inputs, bmv2.Input{Port: p.Port, Packet: p.Data})
	}
	for _, bg := range backgroundFrames() {
		inputs = append(inputs, bmv2.Input{Port: 1, Packet: bg.frame})
	}
	interp, err := bmv2.New(prog, store)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := compile.New(prog, store)
	if err != nil {
		t.Fatal(err)
	}
	behaviors := func(sim bmv2.Simulator, in bmv2.Input) ([]string, error) {
		sim.Reset()
		outs, err := sim.BehaviorSet(in, maxBehaviors)
		sigs := make([]string, len(outs))
		for i, o := range outs {
			sigs[i] = fmt.Sprintf("%s trace=%v", o.Signature(), o.Trace)
		}
		return sigs, err
	}
	for i, in := range inputs {
		want, errI := behaviors(interp, in)
		got, errC := behaviors(comp, in)
		if (errI != nil) != (errC != nil) {
			t.Fatalf("input %d (port %d, %x): interp err %v, compiled err %v", i, in.Port, in.Packet, errI, errC)
		}
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("input %d (port %d, %x): behavior sets diverge:\ninterp:   %v\ncompiled: %v",
				i, in.Port, in.Packet, want, got)
		}
	}
	if len(packets) == 0 {
		t.Fatal("no generated packets")
	}
}

// TestEngineParityDataPlane holds the two engines to identical behavior
// sets over the routing fixture's data-plane campaign inputs on every
// model.
func TestEngineParityDataPlane(t *testing.T) {
	for _, role := range models.Names() {
		t.Run(role, func(t *testing.T) {
			requireEngineParity(t, role, routing)
		})
	}
}

// TestEngineFaultParity holds the two engines to identical behavior
// sets over the campaign inputs of every data-plane fault-matrix
// recipe's fixtures, so the engine cannot change what the fleet
// detects. Faults live on the switch side, so they do not enter here.
func TestEngineFaultParity(t *testing.T) {
	for _, fault := range switchsim.AllFaults() {
		rc := matrixRecipes[fault]
		if rc.tool != "p4-symbolic" {
			continue
		}
		t.Run(string(fault), func(t *testing.T) {
			role := rc.role
			if role == "" {
				role = "middleblock"
			}
			requireEngineParity(t, role, rc.fixtures)
		})
	}
}
