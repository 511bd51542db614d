package switchv

import (
	"testing"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
	"switchv/internal/symbolic"
	"switchv/internal/testutil"
	"switchv/models"
)

// matrixRecipe says how one injected fault is detected: which campaign
// to run, with which fixtures installed and which preparatory traffic.
// This is the executable form of the paper's Table 1 — every bug class
// the deployed system found maps to a detection recipe here.
type matrixRecipe struct {
	role string // defaults to "middleblock"
	tool string // "p4-fuzzer" or "p4-symbolic"
	// fixtures are applied to the store in order (data-plane campaigns).
	fixtures []func(*ir.Program, *pdpi.Store)
	churn    bool
	batches  int // control-plane campaign length override
	// prep runs after the pipeline push and before the campaign.
	prep func(t *testing.T, h *Harness, sw *switchsim.Switch)
}

// routing is the base data-plane fixture set.
var routing = []func(*ir.Program, *pdpi.Store){testutil.RoutingFixture}

func withRouting(extra ...func(*ir.Program, *pdpi.Store)) []func(*ir.Program, *pdpi.Store) {
	return append([]func(*ir.Program, *pdpi.Store){testutil.RoutingFixture}, extra...)
}

// prepACLLeak feeds the SyncD leak counter: thirty constraint-violating
// ACL inserts (a ttl match without an IP match), each correctly
// rejected, each leaking a hardware slot under the fault.
func prepACLLeak(t *testing.T, h *Harness, _ *switchsim.Switch) {
	t.Helper()
	acl, _ := h.Info.TableByName("acl_ingress_table")
	drop, _ := h.Info.ActionByName("acl_drop")
	for i := 0; i < 30; i++ {
		resp := h.Dev.Write(p4rt.WriteRequest{Updates: []p4rt.Update{{Type: p4rt.Insert, Entry: p4rt.TableEntry{
			TableID:  acl.ID,
			Priority: int32(100 + i),
			Match: []p4rt.FieldMatch{
				{FieldID: 5, Ternary: &p4rt.TernaryMatch{Value: []byte{byte(i + 1)}, Mask: []byte{0xff}}},
			},
			Action: p4rt.TableAction{Action: &p4rt.Action{ActionID: drop.ID}},
		}}}})
		if resp.OK() {
			t.Fatalf("constraint-violating ACL prep entry %d accepted", i)
		}
	}
}

// prepPortSyncChurn pushes the switch past the port-sync daemon's
// restart threshold (100 injected frames) so the campaign that follows
// sees the broken packet IO.
func prepPortSyncChurn(t *testing.T, _ *Harness, sw *switchsim.Switch) {
	t.Helper()
	frame := testutil.IPv4UDP("10.1.2.3", 64, 4242)
	for i := 0; i < 101; i++ {
		if _, err := sw.Inject(1, frame); err != nil {
			t.Fatalf("prep inject %d: %v", i, err)
		}
	}
}

// matrixRecipes covers EVERY fault in switchsim's registry;
// TestFaultMatrixComplete enforces the bijection.
var matrixRecipes = map[switchsim.Fault]matrixRecipe{
	// P4Runtime server: control-plane fuzzing finds protocol-level bugs.
	switchsim.FaultBatchAbortOnDeleteMissing: {tool: "p4-fuzzer"},
	switchsim.FaultModifyKeepsOldParams:      {tool: "p4-fuzzer"},
	switchsim.FaultAcceptInvalidReference:    {tool: "p4-fuzzer"},
	switchsim.FaultReadDropsTernary:          {tool: "p4-fuzzer"},
	switchsim.FaultWrongDuplicateStatus:      {tool: "p4-fuzzer"},
	switchsim.FaultZeroBytesAccepted:         {tool: "p4-fuzzer"},
	// An ignored P4Info push leaves the pipeline unconfigured: every
	// fuzzed write fails and the read-back diverges immediately.
	switchsim.FaultP4InfoPushIgnored:   {tool: "p4-fuzzer"},
	switchsim.FaultRejectACLEntries:    {tool: "p4-symbolic", fixtures: routing},
	switchsim.FaultPacketOutPuntedBack: {tool: "p4-symbolic", fixtures: routing},

	// Orchestration agent.
	switchsim.FaultWCMPPartialCleanup:    {tool: "p4-symbolic", fixtures: withRouting(testutil.WideWCMPFixture)},
	switchsim.FaultWCMPRejectSameBuckets: {tool: "p4-symbolic", fixtures: withRouting(testutil.DupBucketWCMPFixture)},
	switchsim.FaultWCMPUpdateDropsMember: {tool: "p4-symbolic", fixtures: routing, churn: true},
	// The teardown wipe at the end of a data-plane run deletes the VRF;
	// the fault turns that into a teardown-rejected incident.
	switchsim.FaultVRFDeleteFails: {tool: "p4-symbolic", fixtures: routing},

	// SyncD / SAI.
	switchsim.FaultACLLeakExhausts:      {tool: "p4-symbolic", fixtures: routing, prep: prepACLLeak},
	switchsim.FaultDSCPRemarkZero:       {tool: "p4-symbolic", fixtures: routing},
	switchsim.FaultSubmitIngressDropped: {tool: "p4-symbolic", fixtures: routing},
	switchsim.FaultDefaultRouteDelete: {tool: "p4-symbolic",
		fixtures: []func(*ir.Program, *pdpi.Store){testutil.DefaultRouteFixture, testutil.RoutingFixture}},

	// Hardware / ASIC.
	switchsim.FaultTTL1NoTrap:          {tool: "p4-symbolic", fixtures: routing},
	switchsim.FaultPortSpeedDrop:       {tool: "p4-symbolic", fixtures: routing},
	switchsim.FaultLPMTiebreakWrong:    {tool: "p4-symbolic", fixtures: routing},
	switchsim.FaultACLPriorityInverted: {tool: "p4-symbolic", fixtures: withRouting(testutil.ACLShadowFixture)},
	switchsim.FaultEncapDstReversed: {role: "wan", tool: "p4-symbolic",
		fixtures: withRouting(testutil.TunnelFixture)},
	switchsim.FaultVLANReservedAccepted:  {role: "wan", tool: "p4-fuzzer"},
	switchsim.FaultRouterInterfaceLimit8: {tool: "p4-symbolic", fixtures: withRouting(testutil.ManyRIFsFixture)},

	// Switch Linux daemons.
	switchsim.FaultLLDPPunt:           {tool: "p4-symbolic", fixtures: routing},
	switchsim.FaultRouterSolicitNoise: {tool: "p4-symbolic", fixtures: routing},
	switchsim.FaultPortSyncBreaksIO:   {tool: "p4-symbolic", fixtures: routing, prep: prepPortSyncChurn},
	switchsim.FaultVRF1Conflict:       {tool: "p4-symbolic", fixtures: routing},

	// Model bugs: the switch is right, the model is wrong; SwitchV still
	// must flag the divergence (triage attributes it to the P4 program).
	switchsim.FaultModelICMPWrongField: {tool: "p4-symbolic", fixtures: withRouting(testutil.ICMPTrapFixture)},
	switchsim.FaultModelBroadcastDrop: {tool: "p4-symbolic",
		fixtures: []func(*ir.Program, *pdpi.Store){testutil.DefaultRouteFixture, testutil.RoutingFixture}},
	switchsim.FaultModelACLAfterRewrite: {tool: "p4-symbolic", fixtures: withRouting(testutil.PostRewriteDropFixture)},
}

// TestFaultMatrixComplete pins the recipe table to the fault registry:
// adding a fault to switchsim without a detection recipe fails here.
func TestFaultMatrixComplete(t *testing.T) {
	for _, f := range switchsim.AllFaults() {
		if _, ok := matrixRecipes[f]; !ok {
			t.Errorf("fault %s has no detection recipe", f)
		}
	}
	for f := range matrixRecipes {
		if _, ok := switchsim.Meta(f); !ok {
			t.Errorf("recipe for unknown fault %s", f)
		}
	}
}

// runRecipe executes one fault's campaign and returns the incidents.
// A non-nil wrap puts a device between the harness and the switch.
func runRecipe(t *testing.T, fault switchsim.Fault, rc matrixRecipe, wrap func(*switchsim.Switch) p4rt.Device, faults ...switchsim.Fault) []Incident {
	t.Helper()
	role := rc.role
	if role == "" {
		role = "middleblock"
	}
	h, sw := newHarness(t, role, faults...)
	if wrap != nil {
		h.Dev = wrap(sw)
	}
	if rc.prep != nil {
		rc.prep(t, h, sw)
	}
	switch rc.tool {
	case "p4-fuzzer":
		opts := smallFuzz
		if rc.batches != 0 {
			opts.NumRequests = rc.batches
		}
		rep, err := h.RunControlPlane(opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Incidents
	case "p4-symbolic":
		prog := models.MustLoad(role)
		store := pdpi.NewStore()
		for _, fix := range rc.fixtures {
			fix(prog, store)
		}
		entries := testutil.InstallOrder(p4info.New(prog), store)
		rep, err := h.RunDataPlane(entries, DataPlaneOptions{
			Coverage: symbolic.CoverBranches,
			Churn:    rc.churn,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Incidents
	default:
		t.Fatalf("recipe for %s has no tool", fault)
		return nil
	}
}

// TestFaultMatrix is the paper's Table 1 as an executable claim: for
// EVERY injectable fault, a short campaign with that single fault
// enabled reports at least one incident.
func TestFaultMatrix(t *testing.T) {
	for _, fault := range switchsim.AllFaults() {
		rc := matrixRecipes[fault]
		t.Run(string(fault), func(t *testing.T) {
			incidents := runRecipe(t, fault, rc, nil, fault)
			if len(incidents) == 0 {
				t.Fatalf("fault %s not detected by %s", fault, rc.tool)
			}
			t.Logf("%s: %d incidents, first: %s", fault, len(incidents), incidents[0])
		})
	}
}

// TestFaultMatrixZeroFaults is the soundness half: the union of every
// matrix fixture and prep on a conformant switch yields zero incidents.
func TestFaultMatrixZeroFaults(t *testing.T) {
	t.Run("control-plane", func(t *testing.T) {
		h, _ := newHarness(t, "middleblock")
		rep, err := h.RunControlPlane(smallFuzz)
		if err != nil {
			t.Fatal(err)
		}
		for _, inc := range rep.Incidents {
			t.Errorf("false positive: %s", inc)
		}
	})
	t.Run("data-plane", func(t *testing.T) {
		h, _ := newHarness(t, "middleblock")
		prepACLLeak(t, h, nil) // rejected entries must leak nothing
		prog := models.MustLoad("middleblock")
		store := pdpi.NewStore()
		for _, fix := range []func(*ir.Program, *pdpi.Store){
			testutil.DefaultRouteFixture,
			testutil.RoutingFixture,
			testutil.WideWCMPFixture,
			testutil.DupBucketWCMPFixture,
			testutil.ManyRIFsFixture,
			testutil.ACLShadowFixture,
			testutil.ICMPTrapFixture,
			testutil.PostRewriteDropFixture,
		} {
			fix(prog, store)
		}
		entries := testutil.InstallOrder(p4info.New(prog), store)
		rep, err := h.RunDataPlane(entries, DataPlaneOptions{Coverage: symbolic.CoverBranches, Churn: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, inc := range rep.Incidents {
			t.Errorf("false positive: %s", inc)
		}
		if rep.Packets == 0 {
			t.Error("no packets generated")
		}
	})
	t.Run("data-plane-wan", func(t *testing.T) {
		h, _ := newHarness(t, "wan")
		prog := models.MustLoad("wan")
		store := pdpi.NewStore()
		testutil.RoutingFixture(prog, store)
		testutil.TunnelFixture(prog, store)
		entries := testutil.InstallOrder(p4info.New(prog), store)
		rep, err := h.RunDataPlane(entries, DataPlaneOptions{Coverage: symbolic.CoverBranches})
		if err != nil {
			t.Fatal(err)
		}
		for _, inc := range rep.Incidents {
			t.Errorf("false positive: %s", inc)
		}
	})
}
