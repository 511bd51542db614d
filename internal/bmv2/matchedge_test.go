package bmv2_test

// Table-match edge cases pinned on both engines: zero-length LPM
// prefixes, ternary don't-care bytes (including degenerate zero masks
// that bypass entry validation), priority ties, and precedence across
// the compiled engine's dispatch lists. Each scenario runs
// end to end through the interpreter and the compiled pipeline and must
// produce bit-identical outcomes.

import (
	"testing"

	"switchv/internal/bmv2"
	"switchv/internal/p4/compile"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
	"switchv/internal/testutil"
	"switchv/models"
)

// bothEngines runs fn once per engine and then asserts the recorded
// outcomes are signature-identical across engines.
func bothEngines(t *testing.T, store *pdpi.Store, fn func(t *testing.T, sim bmv2.Simulator) []*bmv2.Outcome) {
	t.Helper()
	prog := models.Middleblock()
	var results [][]*bmv2.Outcome
	for _, eng := range []struct {
		name string
		mk   func() (bmv2.Simulator, error)
	}{
		{"interp", func() (bmv2.Simulator, error) { return bmv2.New(prog, store) }},
		{"compiled", func() (bmv2.Simulator, error) { return compile.New(prog, store) }},
	} {
		t.Run(eng.name, func(t *testing.T) {
			sim, err := eng.mk()
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, fn(t, sim))
		})
	}
	if len(results) != 2 {
		t.Fatal("an engine subtest did not record outcomes")
	}
	if len(results[0]) != len(results[1]) {
		t.Fatalf("outcome count differs: interp %d, compiled %d", len(results[0]), len(results[1]))
	}
	for i := range results[0] {
		if a, b := results[0][i].Signature(), results[1][i].Signature(); a != b {
			t.Errorf("outcome %d differs between engines:\ninterp:   %s\ncompiled: %s", i, a, b)
		}
	}
}

func mustInsert(t *testing.T, store *pdpi.Store, e *pdpi.Entry) {
	t.Helper()
	if err := store.Insert(e); err != nil {
		t.Fatal(err)
	}
}

// lastHit returns the trace record for table, or a zero TableHit.
func lastHit(o *bmv2.Outcome, table string) bmv2.TableHit {
	for _, h := range o.Trace {
		if h.Table == table {
			return h
		}
	}
	return bmv2.TableHit{}
}

// TestZeroLengthLPM: a /0 route matches every destination but loses to
// any longer prefix; both engines agree on the chosen entry.
func TestZeroLengthLPM(t *testing.T) {
	prog := models.Middleblock()
	store := pdpi.NewStore()
	testutil.RoutingFixture(prog, store)
	ipv4, _ := prog.TableByName("ipv4_table")
	setNH, _ := prog.ActionByName("set_nexthop_id")
	mustInsert(t, store, &pdpi.Entry{
		Table: ipv4,
		Matches: []pdpi.Match{
			{Key: "vrf_id", Kind: ir.MatchExact, Value: value.New(1, 10)},
			{Key: "ipv4_dst", Kind: ir.MatchLPM, Value: value.New(0, 32), PrefixLen: 0},
		},
		Action: &pdpi.ActionInvocation{Action: setNH, Args: []value.V{value.New(2, 10)}},
	})

	bothEngines(t, store, func(t *testing.T, sim bmv2.Simulator) []*bmv2.Outcome {
		var outs []*bmv2.Outcome
		run := func(dst string) *bmv2.Outcome {
			sim.Reset()
			o, err := sim.Run(bmv2.Input{Port: 1, Packet: testutil.IPv4UDP(dst, 64, 53)})
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, o)
			return o
		}
		// Outside every installed prefix: the /0 default route forwards
		// via nexthop 2 (port 12) instead of dropping.
		if o := run("172.16.0.9"); o.Disposition != bmv2.Forwarded || o.EgressPort != 12 {
			t.Errorf("default route: disposition %v port %d, want forwarded via 12", o.Disposition, o.EgressPort)
		}
		// Inside 10/8: the /8 still beats the /0.
		if o := run("10.1.2.3"); o.Disposition != bmv2.Forwarded || o.EgressPort != 11 {
			t.Errorf("/8 over /0: disposition %v port %d, want forwarded via 11", o.Disposition, o.EgressPort)
		}
		// Inside 10.99/16: the /16 beats both.
		if o := run("10.99.7.7"); o.Disposition != bmv2.Forwarded || o.EgressPort != 12 {
			t.Errorf("/16 over /0: disposition %v port %d, want forwarded via 12", o.Disposition, o.EgressPort)
		}
		return outs
	})
}

// TestTernaryDontCareBytes: a ternary match whose mask cares only about
// the first and last byte of the 48-bit MAC; middle bytes are free.
func TestTernaryDontCareBytes(t *testing.T) {
	prog := models.Middleblock()
	store := pdpi.NewStore()
	testutil.RoutingFixture(prog, store)
	acl, _ := prog.TableByName("acl_ingress_table")
	aclDrop, _ := prog.ActionByName("acl_drop")
	// The ACL sees the dst MAC after the nexthop rewrite to
	// 02:00:00:00:01:01; care about 02:**:**:**:**:01 only. A full-mask
	// exact match on the same masked value would miss (byte 4 is 0x01),
	// so a drop proves the masked-out middle bytes are truly free.
	mustInsert(t, store, &pdpi.Entry{
		Table: acl,
		Matches: []pdpi.Match{
			{Key: "dst_mac", Kind: ir.MatchTernary,
				Value: value.New(0x020000000001, 48), Mask: value.New(0xff00000000ff, 48)},
		},
		Priority: 7,
		Action:   &pdpi.ActionInvocation{Action: aclDrop},
	})

	bothEngines(t, store, func(t *testing.T, sim bmv2.Simulator) []*bmv2.Outcome {
		sim.Reset()
		o, err := sim.Run(bmv2.Input{Port: 1, Packet: testutil.IPv4UDP("10.1.2.3", 64, 53)})
		if err != nil {
			t.Fatal(err)
		}
		// The fixture packet's dst MAC is exactly RouterMAC: first and
		// last bytes match the cared-about pattern, so the ACL drops it.
		if o.Disposition != bmv2.Dropped {
			t.Errorf("disposition = %v, want dropped by don't-care-bytes ACL", o.Disposition)
		}
		return []*bmv2.Outcome{o}
	})
}

// TestTernaryZeroMask: degenerate ternary matches that entry validation
// would reject can still be inserted directly; both engines must agree
// that a zero mask with a zero value matches everything, and a zero
// mask with a nonzero value matches nothing.
func TestTernaryZeroMask(t *testing.T) {
	prog := models.Middleblock()
	acl, _ := prog.TableByName("acl_ingress_table")
	aclDrop, _ := prog.ActionByName("acl_drop")

	for _, tc := range []struct {
		name string
		val  uint64
		want bmv2.Disposition
	}{
		// mask 0, value 0: field & 0 == 0 — always true, so the ACL drops.
		{"zero-value-matches-all", 0, bmv2.Dropped},
		// mask 0, value 7: field & 0 == 7 — never true, packet forwards.
		{"nonzero-value-never-matches", 7, bmv2.Forwarded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := pdpi.NewStore()
			testutil.RoutingFixture(prog, store)
			mustInsert(t, store, &pdpi.Entry{
				Table: acl,
				Matches: []pdpi.Match{
					{Key: "ttl", Kind: ir.MatchTernary, Value: value.New(tc.val, 8), Mask: value.New(0, 8)},
				},
				Priority: 7,
				Action:   &pdpi.ActionInvocation{Action: aclDrop},
			})
			bothEngines(t, store, func(t *testing.T, sim bmv2.Simulator) []*bmv2.Outcome {
				sim.Reset()
				o, err := sim.Run(bmv2.Input{Port: 1, Packet: testutil.IPv4UDP("10.1.2.3", 64, 53)})
				if err != nil {
					t.Fatal(err)
				}
				if o.Disposition != tc.want {
					t.Errorf("disposition = %v, want %v", o.Disposition, tc.want)
				}
				return []*bmv2.Outcome{o}
			})
		})
	}
}

// TestPriorityTie: two ACL entries with equal priority that both match;
// the interpreter's scan keeps the first store entry, and the compiled
// engine's stable sort plus seq-ordered dispatch must pick the same one.
func TestPriorityTie(t *testing.T) {
	prog := models.Middleblock()
	store := pdpi.NewStore()
	testutil.RoutingFixture(prog, store)
	acl, _ := prog.TableByName("acl_ingress_table")
	aclDrop, _ := prog.ActionByName("acl_drop")
	aclTrap, _ := prog.ActionByName("acl_trap")
	// Both match a UDP packet: inserted first, the protocol rule; then
	// the TTL rule, at the same priority.
	first := &pdpi.Entry{
		Table: acl,
		Matches: []pdpi.Match{
			{Key: "ip_protocol", Kind: ir.MatchTernary, Value: value.New(17, 8), Mask: value.Ones(8)},
		},
		Priority: 9,
		Action:   &pdpi.ActionInvocation{Action: aclTrap},
	}
	mustInsert(t, store, first)
	mustInsert(t, store, &pdpi.Entry{
		Table: acl,
		Matches: []pdpi.Match{
			{Key: "ttl", Kind: ir.MatchTernary, Value: value.New(64, 8), Mask: value.Ones(8)},
		},
		Priority: 9,
		Action:   &pdpi.ActionInvocation{Action: aclDrop},
	})

	bothEngines(t, store, func(t *testing.T, sim bmv2.Simulator) []*bmv2.Outcome {
		sim.Reset()
		o, err := sim.Run(bmv2.Input{Port: 1, Packet: testutil.IPv4UDP("10.1.2.3", 64, 53)})
		if err != nil {
			t.Fatal(err)
		}
		if h := lastHit(o, "acl_ingress_table"); h.EntryKey != first.Key() {
			t.Errorf("tie broke to %q (%s), want first-inserted %q", h.EntryKey, h.Action, first.Key())
		}
		return []*bmv2.Outcome{o}
	})
}

// TestDispatchMergePrecedence: with enough rows, the compiled engine
// splits a table into hash-grouped lists (here one per ip_protocol
// value, then one per l4_dst_port value) and must merge them by
// precedence. A UDP packet to port 53 matches a low-priority protocol
// row and a higher-priority port row; one to port 443 matches a
// high-priority protocol row and a lower-priority port row. Taking the
// lists in either fixed order gets one of the two wrong.
func TestDispatchMergePrecedence(t *testing.T) {
	prog := models.Middleblock()
	store := pdpi.NewStore()
	testutil.RoutingFixture(prog, store)
	acl, _ := prog.TableByName("acl_ingress_table")
	aclDrop, _ := prog.ActionByName("acl_drop")
	aclTrap, _ := prog.ActionByName("acl_trap")
	row := func(prio int32, act *ir.Action, ms ...pdpi.Match) *pdpi.Entry {
		e := &pdpi.Entry{Table: acl, Matches: ms, Priority: prio, Action: &pdpi.ActionInvocation{Action: act}}
		mustInsert(t, store, e)
		return e
	}
	proto := func(v uint64) pdpi.Match {
		return pdpi.Match{Key: "ip_protocol", Kind: ir.MatchTernary, Value: value.New(v, 8), Mask: value.Ones(8)}
	}
	port := func(v uint64) pdpi.Match {
		return pdpi.Match{Key: "l4_dst_port", Kind: ir.MatchTernary, Value: value.New(v, 16), Mask: value.Ones(16)}
	}
	for p := uint64(1); p <= 6; p++ {
		row(5, aclDrop, proto(p))
	}
	row(10, aclDrop, proto(17))
	udp443 := row(50, aclTrap, proto(17), port(443))
	port53 := row(40, aclTrap, port(53))
	row(20, aclDrop, port(443))

	bothEngines(t, store, func(t *testing.T, sim bmv2.Simulator) []*bmv2.Outcome {
		var outs []*bmv2.Outcome
		for _, tc := range []struct {
			port uint16
			want *pdpi.Entry
		}{{53, port53}, {443, udp443}} {
			sim.Reset()
			o, err := sim.Run(bmv2.Input{Port: 1, Packet: testutil.IPv4UDP("10.1.2.3", 64, tc.port)})
			if err != nil {
				t.Fatal(err)
			}
			if h := lastHit(o, "acl_ingress_table"); h.EntryKey != tc.want.Key() {
				t.Errorf("port %d: hit %q (%s), want %q", tc.port, h.EntryKey, h.Action, tc.want.Key())
			}
			outs = append(outs, o)
		}
		return outs
	})
}
