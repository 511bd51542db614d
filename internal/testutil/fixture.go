// Package testutil provides shared fixtures: realistic entry sets for the
// embedded models, used by tests and benchmarks across packages.
package testutil

import (
	"fmt"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
	"switchv/internal/packet"
)

// RouterMAC is the L3-admitted destination MAC in the fixtures.
var RouterMAC = packet.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0xaa}

// mustAdd validates and inserts, panicking on fixture bugs.
func mustAdd(store *pdpi.Store, e *pdpi.Entry) {
	if err := e.Validate(); err != nil {
		panic(fmt.Sprintf("testutil: invalid fixture entry %s: %v", e, err))
	}
	if err := store.Insert(e); err != nil {
		panic(fmt.Sprintf("testutil: %v", err))
	}
}

func tbl(prog *ir.Program, name string) *ir.Table {
	t, ok := prog.TableByName(name)
	if !ok {
		panic("testutil: missing table " + name)
	}
	return t
}

func act(prog *ir.Program, name string) *ir.Action {
	a, ok := prog.ActionByName(name)
	if !ok {
		panic("testutil: missing action " + name)
	}
	return a
}

// RoutingFixture installs a small, fully wired routing configuration into
// store for either embedded model: VRF 1 assigned to all IPv4/IPv6
// traffic, L3 admission of RouterMAC, two nexthops on ports 11 and 12,
// one /8 IPv4 route, one /16 IPv4 route, one /32 IPv6-mapped route, a WCMP
// group, and an ACL punt rule for TCP:179.
func RoutingFixture(prog *ir.Program, store *pdpi.Store) {
	mustAdd(store, &pdpi.Entry{
		Table:   tbl(prog, "vrf_table"),
		Matches: []pdpi.Match{{Key: "vrf_id", Kind: ir.MatchExact, Value: value.New(1, 10)}},
		Action:  &pdpi.ActionInvocation{Action: prog.NoAction},
	})
	for _, m := range []pdpi.Match{
		{Key: "is_ipv4", Kind: ir.MatchOptional, Value: value.New(1, 1)},
		{Key: "is_ipv6", Kind: ir.MatchOptional, Value: value.New(1, 1)},
	} {
		mustAdd(store, &pdpi.Entry{
			Table:    tbl(prog, "acl_pre_ingress_table"),
			Matches:  []pdpi.Match{m},
			Priority: 1,
			Action:   &pdpi.ActionInvocation{Action: act(prog, "set_vrf"), Args: []value.V{value.New(1, 10)}},
		})
	}
	mustAdd(store, &pdpi.Entry{
		Table: tbl(prog, "l3_admit_table"),
		Matches: []pdpi.Match{{Key: "dst_mac", Kind: ir.MatchTernary,
			Value: value.New(0x0200000000aa, 48), Mask: value.Ones(48)}},
		Priority: 1,
		Action:   &pdpi.ActionInvocation{Action: act(prog, "admit_to_l3")},
	})
	// Two nexthops via router interfaces 1 and 2 (ports 11 and 12).
	for nh := uint64(1); nh <= 2; nh++ {
		mustAdd(store, &pdpi.Entry{
			Table:   tbl(prog, "nexthop_table"),
			Matches: []pdpi.Match{{Key: "nexthop_id", Kind: ir.MatchExact, Value: value.New(nh, 10)}},
			Action: &pdpi.ActionInvocation{Action: act(prog, "set_nexthop"),
				Args: []value.V{value.New(nh, 10), value.New(nh, 10)}},
		})
		mustAdd(store, &pdpi.Entry{
			Table: tbl(prog, "neighbor_table"),
			Matches: []pdpi.Match{
				{Key: "router_interface_id", Kind: ir.MatchExact, Value: value.New(nh, 10)},
				{Key: "neighbor_id", Kind: ir.MatchExact, Value: value.New(nh, 10)},
			},
			Action: &pdpi.ActionInvocation{Action: act(prog, "set_dst_mac"),
				Args: []value.V{value.New(0x020000000100+nh, 48)}},
		})
		mustAdd(store, &pdpi.Entry{
			Table:   tbl(prog, "router_interface_table"),
			Matches: []pdpi.Match{{Key: "router_interface_id", Kind: ir.MatchExact, Value: value.New(nh, 10)}},
			Action: &pdpi.ActionInvocation{Action: act(prog, "set_port_and_src_mac"),
				Args: []value.V{value.New(nh+10, 16), value.New(0x0200000000aa, 48)}},
		})
	}
	// Routes: 10/8 -> nh 1, 10.99/16 -> nh 2, and a WCMP route 10.200/16.
	mustAdd(store, &pdpi.Entry{
		Table: tbl(prog, "ipv4_table"),
		Matches: []pdpi.Match{
			{Key: "vrf_id", Kind: ir.MatchExact, Value: value.New(1, 10)},
			{Key: "ipv4_dst", Kind: ir.MatchLPM, Value: value.New(0x0a000000, 32), PrefixLen: 8},
		},
		Action: &pdpi.ActionInvocation{Action: act(prog, "set_nexthop_id"), Args: []value.V{value.New(1, 10)}},
	})
	mustAdd(store, &pdpi.Entry{
		Table: tbl(prog, "ipv4_table"),
		Matches: []pdpi.Match{
			{Key: "vrf_id", Kind: ir.MatchExact, Value: value.New(1, 10)},
			{Key: "ipv4_dst", Kind: ir.MatchLPM, Value: value.New(0x0a630000, 32), PrefixLen: 16},
		},
		Action: &pdpi.ActionInvocation{Action: act(prog, "set_nexthop_id"), Args: []value.V{value.New(2, 10)}},
	})
	mustAdd(store, &pdpi.Entry{
		Table: tbl(prog, "ipv4_table"),
		Matches: []pdpi.Match{
			{Key: "vrf_id", Kind: ir.MatchExact, Value: value.New(1, 10)},
			{Key: "ipv4_dst", Kind: ir.MatchLPM, Value: value.New(0x0ac80000, 32), PrefixLen: 16},
		},
		Action: &pdpi.ActionInvocation{Action: act(prog, "set_wcmp_group_id"), Args: []value.V{value.New(5, 10)}},
	})
	mustAdd(store, &pdpi.Entry{
		Table:   tbl(prog, "wcmp_group_table"),
		Matches: []pdpi.Match{{Key: "wcmp_group_id", Kind: ir.MatchExact, Value: value.New(5, 10)}},
		ActionSet: []pdpi.WeightedAction{
			{ActionInvocation: pdpi.ActionInvocation{Action: act(prog, "set_nexthop_id"), Args: []value.V{value.New(1, 10)}}, Weight: 2},
			{ActionInvocation: pdpi.ActionInvocation{Action: act(prog, "set_nexthop_id"), Args: []value.V{value.New(2, 10)}}, Weight: 1},
		},
	})
	// IPv6 default route.
	mustAdd(store, &pdpi.Entry{
		Table: tbl(prog, "ipv6_table"),
		Matches: []pdpi.Match{
			{Key: "vrf_id", Kind: ir.MatchExact, Value: value.New(1, 10)},
			{Key: "ipv6_dst", Kind: ir.MatchLPM, Value: value.New128(0x2001_0db8_0000_0000, 0, 128), PrefixLen: 32},
		},
		Action: &pdpi.ActionInvocation{Action: act(prog, "set_nexthop_id"), Args: []value.V{value.New(1, 10)}},
	})
	// ACL: punt BGP (TCP/179). The wan model's restriction requires the
	// IP protocol to be pinned when matching L4 ports.
	mustAdd(store, &pdpi.Entry{
		Table: tbl(prog, "acl_ingress_table"),
		Matches: []pdpi.Match{
			{Key: "ip_protocol", Kind: ir.MatchTernary, Value: value.New(6, 8), Mask: value.Ones(8)},
			{Key: "l4_dst_port", Kind: ir.MatchTernary, Value: value.New(179, 16), Mask: value.Ones(16)},
		},
		Priority: 10,
		Action:   &pdpi.ActionInvocation{Action: act(prog, "acl_trap")},
	})
}

// IPv4UDP builds an Ethernet/IPv4/UDP packet addressed to the router MAC.
func IPv4UDP(dst string, ttl uint8, dstPort uint16) []byte {
	ip := &packet.IPv4{
		TTL:      ttl,
		Protocol: packet.IPProtocolUDP,
		SrcIP:    packet.MustParseIPv4("192.168.1.1"),
		DstIP:    packet.MustParseIPv4(dst),
	}
	udp := &packet.UDP{SrcPort: 4000, DstPort: dstPort}
	udp.SetNetworkLayerForChecksum(ip.SrcIP[:], ip.DstIP[:])
	data, err := packet.Serialize(packet.SerializeOptions{FixLengths: true, ComputeChecksums: true},
		&packet.Ethernet{DstMAC: RouterMAC, SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, EtherType: packet.EtherTypeIPv4},
		ip, udp, packet.Raw([]byte("test-payload")))
	if err != nil {
		panic(err)
	}
	return data
}

// InstallOrder returns the fixture entries of store sorted so that
// referenced tables are installed first (dependency order).
func InstallOrder(info *p4info.Info, store *pdpi.Store) []*pdpi.Entry {
	var out []*pdpi.Entry
	for _, t := range info.TopoOrder() {
		out = append(out, store.Entries(t.Name)...)
	}
	return out
}

// TunnelFixture adds a GRE tunnel path to a wan-model store: tunnel 7,
// nexthop 3 using it via router interface 1, and a 10.77/16 route.
// RoutingFixture must already be installed (it provides rif/neighbor 1).
func TunnelFixture(prog *ir.Program, store *pdpi.Store) {
	mustAdd(store, &pdpi.Entry{
		Table:   tbl(prog, "tunnel_table"),
		Matches: []pdpi.Match{{Key: "tunnel_id", Kind: ir.MatchExact, Value: value.New(7, 10)}},
		Action: &pdpi.ActionInvocation{Action: act(prog, "encap_gre"),
			Args: []value.V{value.New(0xc0000201, 32), value.New(0xc0000202, 32)}},
	})
	mustAdd(store, &pdpi.Entry{
		Table:   tbl(prog, "nexthop_table"),
		Matches: []pdpi.Match{{Key: "nexthop_id", Kind: ir.MatchExact, Value: value.New(3, 10)}},
		Action: &pdpi.ActionInvocation{Action: act(prog, "set_nexthop_and_tunnel"),
			Args: []value.V{value.New(1, 10), value.New(1, 10), value.New(7, 10)}},
	})
	mustAdd(store, &pdpi.Entry{
		Table: tbl(prog, "ipv4_table"),
		Matches: []pdpi.Match{
			{Key: "vrf_id", Kind: ir.MatchExact, Value: value.New(1, 10)},
			{Key: "ipv4_dst", Kind: ir.MatchLPM, Value: value.New(0x0a4d0000, 32), PrefixLen: 16},
		},
		Action: &pdpi.ActionInvocation{Action: act(prog, "set_nexthop_id"), Args: []value.V{value.New(3, 10)}},
	})
}

// WideWCMPFixture adds WCMP group 6 with three distinct buckets over
// nexthops 1 and 2. Valid everywhere; a switch whose orchagent cannot
// create groups with more than two members (partial-cleanup bug) fails
// the install. RoutingFixture must already be installed.
func WideWCMPFixture(prog *ir.Program, store *pdpi.Store) {
	mustAdd(store, &pdpi.Entry{
		Table:   tbl(prog, "wcmp_group_table"),
		Matches: []pdpi.Match{{Key: "wcmp_group_id", Kind: ir.MatchExact, Value: value.New(6, 10)}},
		ActionSet: []pdpi.WeightedAction{
			{ActionInvocation: pdpi.ActionInvocation{Action: act(prog, "set_nexthop_id"), Args: []value.V{value.New(1, 10)}}, Weight: 1},
			{ActionInvocation: pdpi.ActionInvocation{Action: act(prog, "set_nexthop_id"), Args: []value.V{value.New(2, 10)}}, Weight: 1},
			{ActionInvocation: pdpi.ActionInvocation{Action: act(prog, "set_nexthop_id"), Args: []value.V{value.New(1, 10)}}, Weight: 2},
		},
	})
}

// DupBucketWCMPFixture adds WCMP group 7 whose two buckets are
// identical — valid per the P4Runtime spec, rejected by the
// same-buckets orchagent bug. RoutingFixture must already be installed.
func DupBucketWCMPFixture(prog *ir.Program, store *pdpi.Store) {
	mustAdd(store, &pdpi.Entry{
		Table:   tbl(prog, "wcmp_group_table"),
		Matches: []pdpi.Match{{Key: "wcmp_group_id", Kind: ir.MatchExact, Value: value.New(7, 10)}},
		ActionSet: []pdpi.WeightedAction{
			{ActionInvocation: pdpi.ActionInvocation{Action: act(prog, "set_nexthop_id"), Args: []value.V{value.New(1, 10)}}, Weight: 2},
			{ActionInvocation: pdpi.ActionInvocation{Action: act(prog, "set_nexthop_id"), Args: []value.V{value.New(1, 10)}}, Weight: 2},
		},
	})
}

// ManyRIFsFixture adds router interfaces 3..11, taking the total (with
// RoutingFixture's two) to eleven — within the model's guarantee, past
// the real chip's capacity of eight.
func ManyRIFsFixture(prog *ir.Program, store *pdpi.Store) {
	for id := uint64(3); id <= 11; id++ {
		mustAdd(store, &pdpi.Entry{
			Table:   tbl(prog, "router_interface_table"),
			Matches: []pdpi.Match{{Key: "router_interface_id", Kind: ir.MatchExact, Value: value.New(id, 10)}},
			Action: &pdpi.ActionInvocation{Action: act(prog, "set_port_and_src_mac"),
				Args: []value.V{value.New(id+20, 16), value.New(0x0200000000aa, 48)}},
		})
	}
}

// ACLShadowFixture adds a priority-1 ingress drop for all TCP traffic,
// shadowed (for TCP/179) by RoutingFixture's priority-10 BGP trap. On
// correct hardware the trap wins; a TCAM that picks the lowest-priority
// match drops BGP instead.
func ACLShadowFixture(prog *ir.Program, store *pdpi.Store) {
	mustAdd(store, &pdpi.Entry{
		Table: tbl(prog, "acl_ingress_table"),
		Matches: []pdpi.Match{
			{Key: "ip_protocol", Kind: ir.MatchTernary, Value: value.New(6, 8), Mask: value.Ones(8)},
		},
		Priority: 1,
		Action:   &pdpi.ActionInvocation{Action: act(prog, "acl_drop")},
	})
}

// ICMPTrapFixture adds an ingress trap for ICMP echo requests
// (ip_protocol 1, icmp type 8), restriction-compliant per the model's
// "icmp_type requires ip_protocol == 1" rule. A switch matching the
// ICMP code field instead of the type field misses echo requests, whose
// code is 0.
func ICMPTrapFixture(prog *ir.Program, store *pdpi.Store) {
	mustAdd(store, &pdpi.Entry{
		Table: tbl(prog, "acl_ingress_table"),
		Matches: []pdpi.Match{
			{Key: "ip_protocol", Kind: ir.MatchTernary, Value: value.New(1, 8), Mask: value.Ones(8)},
			{Key: "icmp_type", Kind: ir.MatchTernary, Value: value.New(8, 8), Mask: value.Ones(8)},
		},
		Priority: 20,
		Action:   &pdpi.ActionInvocation{Action: act(prog, "acl_trap")},
	})
}

// PostRewriteDropFixture adds an ingress drop keyed on nexthop 1's
// neighbor MAC — a destination MAC that only exists after the routing
// rewrite. The model applies the ingress ACL to the rewritten headers,
// so traffic routed via nexthop 1 must be dropped; a switch evaluating
// the ACL before the rewrite forwards it. RoutingFixture must already
// be installed.
func PostRewriteDropFixture(prog *ir.Program, store *pdpi.Store) {
	mustAdd(store, &pdpi.Entry{
		Table: tbl(prog, "acl_ingress_table"),
		Matches: []pdpi.Match{
			{Key: "dst_mac", Kind: ir.MatchTernary, Value: value.New(0x020000000101, 48), Mask: value.Ones(48)},
		},
		Priority: 30,
		Action:   &pdpi.ActionInvocation{Action: act(prog, "acl_drop")},
	})
}

// DefaultRouteFixture adds a 0.0.0.0/0 route via nexthop 1 in VRF 1.
func DefaultRouteFixture(prog *ir.Program, store *pdpi.Store) {
	mustAdd(store, &pdpi.Entry{
		Table: tbl(prog, "ipv4_table"),
		Matches: []pdpi.Match{
			{Key: "vrf_id", Kind: ir.MatchExact, Value: value.New(1, 10)},
			{Key: "ipv4_dst", Kind: ir.MatchLPM, Value: value.Zero(32), PrefixLen: 0},
		},
		Action: &pdpi.ActionInvocation{Action: act(prog, "set_nexthop_id"), Args: []value.V{value.New(1, 10)}},
	})
}
