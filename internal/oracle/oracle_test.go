package oracle

import (
	"strings"
	"testing"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
	"switchv/internal/p4rt"
	"switchv/models"
)

func infoMB() *p4info.Info { return p4info.New(models.Middleblock()) }

func vrfInsert(info *p4info.Info, id byte) p4rt.Update {
	vrf, _ := info.TableByName("vrf_table")
	return p4rt.Update{Type: p4rt.Insert, Entry: p4rt.TableEntry{
		TableID: vrf.ID,
		Match:   []p4rt.FieldMatch{{FieldID: 1, Exact: &p4rt.ExactMatch{Value: []byte{id}}}},
		Action:  p4rt.TableAction{Action: &p4rt.Action{ActionID: info.Program().NoAction.ID}},
	}}
}

func wire(u p4rt.Update, typ p4rt.UpdateType) p4rt.Update {
	u.Type = typ
	return u
}

func TestClassify(t *testing.T) {
	info := infoMB()
	o := New(info)

	// Valid insert into empty state.
	ins := vrfInsert(info, 5)
	v, why := o.Classify(o.State(), &ins)
	if v != MustAccept {
		t.Errorf("insert: %v (%s)", v, why)
	}

	// Constraint violation (vrf 0).
	bad := vrfInsert(info, 0)
	v, why = o.Classify(o.State(), &bad)
	if v != MustReject || !strings.Contains(why, "entry_restriction") {
		t.Errorf("vrf 0: %v (%s)", v, why)
	}

	// Delete of a missing entry.
	del := wire(vrfInsert(info, 5), p4rt.Delete)
	v, why = o.Classify(o.State(), &del)
	if v != MustReject || !strings.Contains(why, "non-existent") {
		t.Errorf("delete missing: %v (%s)", v, why)
	}

	// Syntactically broken update.
	broken := p4rt.Update{Type: p4rt.Insert, Entry: p4rt.TableEntry{TableID: 0xbad}}
	v, _ = o.Classify(o.State(), &broken)
	if v != MustReject {
		t.Errorf("broken: %v", v)
	}

	// Insert into an installed state: duplicate must be rejected.
	e, err := p4rt.FromWire(info, &ins.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.State().Insert(e); err != nil {
		t.Fatal(err)
	}
	v, why = o.Classify(o.State(), &ins)
	if v != MustReject || why != "entry already exists" {
		t.Errorf("duplicate: %v (%s)", v, why)
	}
	// ... and now the delete is a must-accept.
	v, _ = o.Classify(o.State(), &del)
	if v != MustAccept {
		t.Errorf("delete existing: %v", v)
	}
}

func TestClassifyResourceLimit(t *testing.T) {
	info := infoMB()
	o := New(info)
	vrf, _ := info.TableByName("vrf_table")
	// Fill the table to its guaranteed size.
	for i := 1; i <= vrf.Size; i++ {
		e := &pdpi.Entry{
			Table:   vrf,
			Matches: []pdpi.Match{{Key: "vrf_id", Kind: ir.MatchExact, Value: value.New(uint64(i), 10)}},
			Action:  &pdpi.ActionInvocation{Action: info.Program().NoAction},
		}
		if err := o.State().Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	over := vrfInsert(info, 200)
	v, why := o.Classify(o.State(), &over)
	if v != MayReject || !strings.Contains(why, "guaranteed size") {
		t.Errorf("over capacity: %v (%s)", v, why)
	}
}

func TestClassifyReferentialIntegrity(t *testing.T) {
	prog := models.Middleblock()
	info := p4info.New(prog)
	o := New(info)
	vrfT, _ := info.TableByName("vrf_table")
	ipv4T, _ := info.TableByName("ipv4_table")
	setNH, _ := info.ActionByName("set_nexthop_id")
	nhT, _ := info.TableByName("nexthop_table")
	setNexthop, _ := info.ActionByName("set_nexthop")

	// Route referencing VRF 9 before VRF 9 exists: must reject.
	route := p4rt.Update{Type: p4rt.Insert, Entry: p4rt.TableEntry{
		TableID: ipv4T.ID,
		Match: []p4rt.FieldMatch{
			{FieldID: 1, Exact: &p4rt.ExactMatch{Value: []byte{9}}},
			{FieldID: 2, LPM: &p4rt.LPMMatch{Value: []byte{10, 0, 0, 0}, PrefixLen: 8}},
		},
		Action: p4rt.TableAction{Action: &p4rt.Action{
			ActionID: setNH.ID,
			Params:   []p4rt.ActionParam{{ParamID: 1, Value: []byte{7}}},
		}},
	}}
	v, why := o.Classify(o.State(), &route)
	if v != MustReject || !strings.Contains(why, "does not resolve") {
		t.Errorf("dangling route: %v (%s)", v, why)
	}

	// Install VRF 9 and nexthop 7; the route becomes valid.
	o.State().Insert(&pdpi.Entry{
		Table:   vrfT,
		Matches: []pdpi.Match{{Key: "vrf_id", Kind: ir.MatchExact, Value: value.New(9, 10)}},
		Action:  &pdpi.ActionInvocation{Action: prog.NoAction},
	})
	o.State().Insert(&pdpi.Entry{
		Table:   nhT,
		Matches: []pdpi.Match{{Key: "nexthop_id", Kind: ir.MatchExact, Value: value.New(7, 10)}},
		Action: &pdpi.ActionInvocation{Action: setNexthop,
			Args: []value.V{value.New(1, 10), value.New(1, 10)}},
	})
	v, why = o.Classify(o.State(), &route)
	if v != MustAccept {
		t.Errorf("resolved route: %v (%s)", v, why)
	}

	// Now deleting the VRF would dangle the route (once installed).
	e, _ := p4rt.FromWire(info, &route.Entry)
	o.State().Insert(e)
	delVRF := p4rt.Update{Type: p4rt.Delete, Entry: p4rt.TableEntry{
		TableID: vrfT.ID,
		Match:   []p4rt.FieldMatch{{FieldID: 1, Exact: &p4rt.ExactMatch{Value: []byte{9}}}},
		Action:  p4rt.TableAction{Action: &p4rt.Action{ActionID: prog.NoAction.ID}},
	}}
	v, why = o.Classify(o.State(), &delVRF)
	if v != MustReject || !strings.Contains(why, "dangle") {
		t.Errorf("delete referenced vrf: %v (%s)", v, why)
	}
}

func TestCheckBatchStatuses(t *testing.T) {
	info := infoMB()
	o := New(info)
	ins := vrfInsert(info, 3)
	req := p4rt.WriteRequest{Updates: []p4rt.Update{ins}}

	// Accepted and present in the read-back: clean.
	e, _ := p4rt.FromWire(info, &ins.Entry)
	observed := p4rt.ReadResponse{Entries: []p4rt.TableEntry{p4rt.ToWire(e)}}
	verdicts, violations := o.CheckBatch(req, p4rt.WriteResponse{Statuses: []p4rt.Status{{}}}, observed)
	if len(violations) != 0 {
		t.Fatalf("violations: %v", violations)
	}
	if verdicts[0] != MustAccept {
		t.Errorf("verdict: %v", verdicts[0])
	}
	if o.State().Len() != 1 {
		t.Errorf("state not adopted: %d entries", o.State().Len())
	}

	// Rejecting a must-accept is a violation.
	o2 := New(info)
	_, violations = o2.CheckBatch(req,
		p4rt.WriteResponse{Statuses: []p4rt.Status{p4rt.Statusf(p4rt.Internal, "nope")}},
		p4rt.ReadResponse{})
	if len(violations) != 1 || violations[0].Kind != "rejected-valid" {
		t.Fatalf("violations: %v", violations)
	}

	// Accepting a must-reject is a violation.
	o3 := New(info)
	badReq := p4rt.WriteRequest{Updates: []p4rt.Update{vrfInsert(info, 0)}}
	badE, err := p4rt.FromWire(info, &badReq.Updates[0].Entry)
	if err != nil {
		t.Fatal(err)
	}
	_, violations = o3.CheckBatch(badReq,
		p4rt.WriteResponse{Statuses: []p4rt.Status{{}}},
		p4rt.ReadResponse{Entries: []p4rt.TableEntry{p4rt.ToWire(badE)}})
	found := false
	for _, v := range violations {
		if v.Kind == "accepted-invalid" {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations: %v", violations)
	}

	// Wrong status code for a duplicate.
	o4 := New(info)
	e4, _ := p4rt.FromWire(info, &ins.Entry)
	o4.State().Insert(e4)
	_, violations = o4.CheckBatch(req,
		p4rt.WriteResponse{Statuses: []p4rt.Status{p4rt.Statusf(p4rt.InvalidArgument, "dup")}},
		p4rt.ReadResponse{Entries: []p4rt.TableEntry{p4rt.ToWire(e4)}})
	found = false
	for _, v := range violations {
		if v.Kind == "wrong-status-code" && strings.Contains(v.Message, "ALREADY_EXISTS") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations: %v", violations)
	}

	// Response shape mismatch.
	o5 := New(info)
	_, violations = o5.CheckBatch(req, p4rt.WriteResponse{}, p4rt.ReadResponse{})
	if len(violations) != 1 || violations[0].Kind != "response-shape" {
		t.Fatalf("violations: %v", violations)
	}
}

func TestCheckBatchReadback(t *testing.T) {
	info := infoMB()
	ins := vrfInsert(info, 3)
	req := p4rt.WriteRequest{Updates: []p4rt.Update{ins}}
	okResp := p4rt.WriteResponse{Statuses: []p4rt.Status{{}}}

	// Accepted but missing from the read-back.
	o := New(info)
	_, violations := o.CheckBatch(req, okResp, p4rt.ReadResponse{})
	if len(violations) != 1 || violations[0].Kind != "readback-missing" {
		t.Fatalf("violations: %v", violations)
	}

	// Extra entry in the read-back.
	o2 := New(info)
	extra9 := vrfInsert(info, 9)
	extra, _ := p4rt.FromWire(info, &extra9.Entry)
	e, _ := p4rt.FromWire(info, &ins.Entry)
	_, violations = o2.CheckBatch(req, okResp, p4rt.ReadResponse{
		Entries: []p4rt.TableEntry{p4rt.ToWire(e), p4rt.ToWire(extra)},
	})
	if len(violations) != 1 || violations[0].Kind != "readback-extra" {
		t.Fatalf("violations: %v", violations)
	}

	// Same entry returned twice.
	o3 := New(info)
	_, violations = o3.CheckBatch(req, okResp, p4rt.ReadResponse{
		Entries: []p4rt.TableEntry{p4rt.ToWire(e), p4rt.ToWire(e)},
	})
	if len(violations) != 1 || violations[0].Kind != "readback-duplicate" {
		t.Fatalf("violations: %v", violations)
	}

	// Non-canonical bytes in the read-back.
	o4 := New(info)
	mangled := p4rt.ToWire(e)
	mangled.Match[0].Exact.Value = []byte{0, 3}
	_, violations = o4.CheckBatch(req, okResp, p4rt.ReadResponse{
		Entries: []p4rt.TableEntry{mangled},
	})
	foundFormat := false
	for _, v := range violations {
		if v.Kind == "readback-format" {
			foundFormat = true
		}
	}
	if !foundFormat {
		t.Fatalf("violations: %v", violations)
	}

	// Entry with a different action than installed.
	o5 := New(info)
	ipv4, _ := info.TableByName("ipv4_table")
	drop, _ := info.ActionByName("drop")
	setNH, _ := info.ActionByName("set_nexthop_id")
	nhT, _ := info.TableByName("nexthop_table")
	setNexthop, _ := info.ActionByName("set_nexthop")
	o5.State().Insert(&pdpi.Entry{
		Table:   nhT,
		Matches: []pdpi.Match{{Key: "nexthop_id", Kind: ir.MatchExact, Value: value.New(1, 10)}},
		Action:  &pdpi.ActionInvocation{Action: setNexthop, Args: []value.V{value.New(1, 10), value.New(1, 10)}},
	})
	vrf1 := vrfInsert(info, 1)
	vrfE, _ := p4rt.FromWire(info, &vrf1.Entry)
	o5.State().Insert(vrfE)
	routeReq := p4rt.WriteRequest{Updates: []p4rt.Update{{Type: p4rt.Insert, Entry: p4rt.TableEntry{
		TableID: ipv4.ID,
		Match: []p4rt.FieldMatch{
			{FieldID: 1, Exact: &p4rt.ExactMatch{Value: []byte{1}}},
			{FieldID: 2, LPM: &p4rt.LPMMatch{Value: []byte{10, 0, 0, 0}, PrefixLen: 8}},
		},
		Action: p4rt.TableAction{Action: &p4rt.Action{
			ActionID: setNH.ID,
			Params:   []p4rt.ActionParam{{ParamID: 1, Value: []byte{1}}},
		}},
	}}}}
	// Switch claims OK but the read-back shows a different action (drop).
	lied := routeReq.Updates[0].Entry
	lied.Action = p4rt.TableAction{Action: &p4rt.Action{ActionID: drop.ID}}
	pre := o5.State().Clone()
	_ = pre
	nhWire := o5StateNh(info)
	mustFromWire(t, info, &nhWire)
	_, violations = o5.CheckBatch(routeReq, okResp, p4rt.ReadResponse{
		Entries: []p4rt.TableEntry{p4rt.ToWire(vrfE), nhWire, lied},
	})
	foundMismatch := false
	for _, v := range violations {
		if v.Kind == "readback-mismatch" {
			foundMismatch = true
		}
	}
	if !foundMismatch {
		t.Fatalf("violations: %v", violations)
	}

	// A WCMP group read back with the right action names and weights but
	// a member pointing at another nexthop.
	o6 := New(info)
	nh1 := mustFromWire(t, info, &nhWire)
	nh2Wire := o5StateNh(info)
	nh2Wire.Match[0].Exact.Value = []byte{2}
	nh2 := mustFromWire(t, info, &nh2Wire)
	o6.State().Insert(nh1)
	o6.State().Insert(nh2)
	groupReq := p4rt.WriteRequest{Updates: []p4rt.Update{{Type: p4rt.Insert, Entry: wcmpGroup(info, 1)}}}
	_, violations = o6.CheckBatch(groupReq, okResp, p4rt.ReadResponse{
		Entries: []p4rt.TableEntry{nhWire, nh2Wire, wcmpGroup(info, 2)},
	})
	if len(violations) != 1 || violations[0].Kind != "readback-mismatch" ||
		!strings.Contains(violations[0].Message, "set_nexthop_id 10w0x2*1") {
		t.Fatalf("violations: %v", violations)
	}
}

// wcmpGroup is WCMP group 1 with one member, set_nexthop_id(nexthop).
func wcmpGroup(info *p4info.Info, nexthop byte) p4rt.TableEntry {
	wcmpT, _ := info.TableByName("wcmp_group_table")
	setNH, _ := info.ActionByName("set_nexthop_id")
	return p4rt.TableEntry{
		TableID: wcmpT.ID,
		Match:   []p4rt.FieldMatch{{FieldID: 1, Exact: &p4rt.ExactMatch{Value: []byte{1}}}},
		Action: p4rt.TableAction{HasActionSet: true, ActionSet: []p4rt.ActionProfileAction{{
			Action: p4rt.Action{ActionID: setNH.ID, Params: []p4rt.ActionParam{{ParamID: 1, Value: []byte{nexthop}}}},
			Weight: 1,
		}}},
	}
}

func o5StateNh(info *p4info.Info) p4rt.TableEntry {
	nhT, _ := info.TableByName("nexthop_table")
	setNexthop, _ := info.ActionByName("set_nexthop")
	return p4rt.TableEntry{
		TableID: nhT.ID,
		Match:   []p4rt.FieldMatch{{FieldID: 1, Exact: &p4rt.ExactMatch{Value: []byte{1}}}},
		Action: p4rt.TableAction{Action: &p4rt.Action{
			ActionID: setNexthop.ID,
			Params: []p4rt.ActionParam{
				{ParamID: 1, Value: []byte{1}},
				{ParamID: 2, Value: []byte{1}},
			},
		}},
	}
}

func mustFromWire(t *testing.T, info *p4info.Info, te *p4rt.TableEntry) *pdpi.Entry {
	t.Helper()
	e, err := p4rt.FromWire(info, te)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBatchCollisionsAreMayReject(t *testing.T) {
	info := infoMB()
	o := New(info)
	ins4 := vrfInsert(info, 4)
	e, _ := p4rt.FromWire(info, &ins4.Entry)
	o.State().Insert(e)

	// delete + re-insert of the same key in one batch: both orders are
	// admissible, so any accept/reject combination the switch reports
	// (consistently with the read-back) passes.
	req := p4rt.WriteRequest{Updates: []p4rt.Update{
		wire(vrfInsert(info, 4), p4rt.Delete),
		vrfInsert(info, 4),
	}}
	verdicts, violations := o.CheckBatch(req,
		p4rt.WriteResponse{Statuses: []p4rt.Status{{}, {}}},
		p4rt.ReadResponse{Entries: []p4rt.TableEntry{p4rt.ToWire(e)}})
	if len(violations) != 0 {
		t.Fatalf("violations: %v", violations)
	}
	for i, v := range verdicts {
		if v != MayReject {
			t.Errorf("verdict %d = %v, want may-reject", i, v)
		}
	}
}

// TestBatchOrderNonDeterminism drives CheckBatch through every admissible
// execution order of batches that insert and delete the same key: the
// P4Runtime spec lets the switch apply a batch in any order (§4 Example 2),
// so any status combination consistent with *some* order — and a read-back
// matching it — must pass with zero violations. Only behaviors consistent
// with *no* order are flagged.
func TestBatchOrderNonDeterminism(t *testing.T) {
	info := infoMB()
	ok := p4rt.Status{}
	entry := func(id byte) p4rt.TableEntry {
		u := vrfInsert(info, id)
		e, err := p4rt.FromWire(info, &u.Entry)
		if err != nil {
			t.Fatal(err)
		}
		return p4rt.ToWire(e)
	}

	cases := []struct {
		name       string
		preInstall []byte // vrf ids present before the batch
		updates    []p4rt.Update
		statuses   []p4rt.Status
		readback   []p4rt.TableEntry
		wantClean  bool
	}{
		{
			name:       "delete+insert, delete-first order",
			preInstall: []byte{4},
			updates:    []p4rt.Update{wire(vrfInsert(info, 4), p4rt.Delete), vrfInsert(info, 4)},
			statuses:   []p4rt.Status{ok, ok},
			readback:   []p4rt.TableEntry{entry(4)},
			wantClean:  true,
		},
		{
			name:       "delete+insert, insert-first order",
			preInstall: []byte{4},
			updates:    []p4rt.Update{wire(vrfInsert(info, 4), p4rt.Delete), vrfInsert(info, 4)},
			statuses:   []p4rt.Status{ok, p4rt.Statusf(p4rt.AlreadyExists, "dup")},
			readback:   nil, // delete applied, insert rejected
			wantClean:  true,
		},
		{
			name:      "insert+delete of a fresh key, insert-first order",
			updates:   []p4rt.Update{vrfInsert(info, 5), wire(vrfInsert(info, 5), p4rt.Delete)},
			statuses:  []p4rt.Status{ok, ok},
			readback:  nil,
			wantClean: true,
		},
		{
			name:      "insert+delete of a fresh key, delete-first order",
			updates:   []p4rt.Update{vrfInsert(info, 5), wire(vrfInsert(info, 5), p4rt.Delete)},
			statuses:  []p4rt.Status{ok, p4rt.Statusf(p4rt.NotFound, "missing")},
			readback:  []p4rt.TableEntry{entry(5)},
			wantClean: true,
		},
		{
			name:       "modify+delete, modify-first order",
			preInstall: []byte{6},
			updates:    []p4rt.Update{wire(vrfInsert(info, 6), p4rt.Modify), wire(vrfInsert(info, 6), p4rt.Delete)},
			statuses:   []p4rt.Status{ok, ok},
			readback:   nil,
			wantClean:  true,
		},
		{
			name:       "modify+delete, delete-first order",
			preInstall: []byte{6},
			updates:    []p4rt.Update{wire(vrfInsert(info, 6), p4rt.Modify), wire(vrfInsert(info, 6), p4rt.Delete)},
			statuses:   []p4rt.Status{p4rt.Statusf(p4rt.NotFound, "gone"), ok},
			readback:   nil,
			wantClean:  true,
		},
		{
			// Both accepted implies the entry survives (delete-then-insert
			// is the only all-OK order); an empty read-back matches no order.
			name:       "delete+insert, all accepted but entry lost",
			preInstall: []byte{4},
			updates:    []p4rt.Update{wire(vrfInsert(info, 4), p4rt.Delete), vrfInsert(info, 4)},
			statuses:   []p4rt.Status{ok, ok},
			readback:   nil,
			wantClean:  false,
		},
		{
			// Rejecting every update of the colliding pair leaves the
			// pre-installed entry; losing it anyway is a violation.
			name:       "delete+insert, all rejected but entry gone",
			preInstall: []byte{4},
			updates:    []p4rt.Update{wire(vrfInsert(info, 4), p4rt.Delete), vrfInsert(info, 4)},
			statuses:   []p4rt.Status{p4rt.Statusf(p4rt.Internal, "x"), p4rt.Statusf(p4rt.Internal, "x")},
			readback:   nil,
			wantClean:  false,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := New(info)
			for _, id := range tc.preInstall {
				u := vrfInsert(info, id)
				e, err := p4rt.FromWire(info, &u.Entry)
				if err != nil {
					t.Fatal(err)
				}
				if err := o.State().Insert(e); err != nil {
					t.Fatal(err)
				}
			}
			verdicts, violations := o.CheckBatch(
				p4rt.WriteRequest{Updates: tc.updates},
				p4rt.WriteResponse{Statuses: tc.statuses},
				p4rt.ReadResponse{Entries: tc.readback})
			if tc.wantClean && len(violations) != 0 {
				t.Fatalf("violations: %v", violations)
			}
			if !tc.wantClean && len(violations) == 0 {
				t.Fatalf("expected violations, got none (verdicts %v)", verdicts)
			}
			// Colliding state-dependent updates are never must-accept or
			// must-reject: both orders must stay admissible.
			for i, v := range verdicts {
				if v != MayReject {
					t.Errorf("verdict %d = %v, want may-reject", i, v)
				}
			}
		})
	}
}

func TestVerdictStrings(t *testing.T) {
	if MustAccept.String() != "must-accept" || MayReject.String() != "may-reject" || MustReject.String() != "must-reject" {
		t.Error("verdict strings")
	}
	v := Violation{UpdateIndex: -1, Kind: "k", Message: "m"}
	if !strings.Contains(v.String(), "[state]") {
		t.Errorf("violation string: %s", v)
	}
	v.UpdateIndex = 3
	if !strings.Contains(v.String(), "update 3") {
		t.Errorf("violation string: %s", v)
	}
}
