package compile_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"switchv/internal/bmv2"
	"switchv/internal/p4/check"
	"switchv/internal/p4/compile"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
	"switchv/internal/packet"
	"switchv/internal/symbolic"
	"switchv/internal/testutil"
	"switchv/internal/workload"
	"switchv/models"
)

// mustFrame serializes layers into a wire frame, panicking on failure
// (all corpus frames are statically well-formed).
func mustFrame(layers ...packet.SerializableLayer) []byte {
	data, err := packet.Serialize(packet.SerializeOptions{FixLengths: true, ComputeChecksums: true}, layers...)
	if err != nil {
		panic(err)
	}
	return data
}

func eth(dst packet.MAC, etherType uint16) *packet.Ethernet {
	return &packet.Ethernet{DstMAC: dst, SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, EtherType: etherType}
}

// corpus returns the deterministic differential packet corpus: one frame
// per parser path and per interesting routing decision, plus truncations
// and seeded garbage for the error paths.
func corpus() [][]byte {
	var pkts [][]byte
	add := func(p []byte) { pkts = append(pkts, p) }

	// IPv4/UDP routing decisions: 10/8 route, 10.99/16 more-specific,
	// 10.200/16 WCMP group (multi-behavior), no route, TTL edge cases.
	add(testutil.IPv4UDP("10.0.0.1", 64, 53))
	add(testutil.IPv4UDP("10.99.1.2", 64, 53))
	add(testutil.IPv4UDP("10.200.3.4", 64, 443))
	add(testutil.IPv4UDP("192.0.2.1", 64, 53))
	add(testutil.IPv4UDP("10.0.0.1", 1, 53))
	add(testutil.IPv4UDP("10.0.0.1", 0, 53))

	mkIPv4 := func(proto uint8, dst string) *packet.IPv4 {
		return &packet.IPv4{
			TTL:      64,
			Protocol: proto,
			SrcIP:    packet.MustParseIPv4("192.168.1.1"),
			DstIP:    packet.MustParseIPv4(dst),
		}
	}

	// TCP/179: the BGP trap in the routing fixture's acl_ingress_table.
	ip := mkIPv4(packet.IPProtocolTCP, "10.0.0.1")
	tcp := &packet.TCP{SrcPort: 33000, DstPort: 179}
	tcp.SetNetworkLayerForChecksum(ip.SrcIP[:], ip.DstIP[:])
	add(mustFrame(eth(testutil.RouterMAC, packet.EtherTypeIPv4), ip, tcp, packet.Raw([]byte("bgp"))))

	// ICMP echo request (ICMPTrapFixture path).
	ip = mkIPv4(packet.IPProtocolICMPv4, "10.0.0.1")
	add(mustFrame(eth(testutil.RouterMAC, packet.EtherTypeIPv4), ip,
		&packet.ICMPv4{Type: 8, Code: 0}, packet.Raw([]byte("ping"))))

	// IPv6/UDP to the fixture's 2001:db8::/32 route, and an unrouted v6.
	for _, dst := range []string{"2001:db8::1", "2620:15c::99"} {
		ip6 := &packet.IPv6{
			NextHeader: packet.IPProtocolUDP,
			HopLimit:   64,
			SrcIP:      packet.MustParseIPv6("2001:db8::aaaa"),
			DstIP:      packet.MustParseIPv6(dst),
		}
		udp := &packet.UDP{SrcPort: 4000, DstPort: 53}
		udp.SetNetworkLayerForChecksum(ip6.SrcIP[:], ip6.DstIP[:])
		add(mustFrame(eth(testutil.RouterMAC, packet.EtherTypeIPv6), ip6, udp, packet.Raw([]byte("v6"))))
	}

	// ARP request (broadcast destination).
	add(mustFrame(eth(packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, packet.EtherTypeARP),
		&packet.ARP{
			Operation: 1,
			SenderMAC: packet.MAC{2, 0, 0, 0, 0, 1},
			SenderIP:  packet.MustParseIPv4("192.168.1.1"),
			TargetIP:  packet.MustParseIPv4("192.168.1.254"),
		}))

	// VLAN-tagged IPv4/UDP.
	ip = mkIPv4(packet.IPProtocolUDP, "10.0.0.1")
	udp := &packet.UDP{SrcPort: 4000, DstPort: 53}
	udp.SetNetworkLayerForChecksum(ip.SrcIP[:], ip.DstIP[:])
	add(mustFrame(eth(testutil.RouterMAC, packet.EtherTypeVLAN),
		&packet.VLAN{Priority: 3, VLANID: 100, EtherType: packet.EtherTypeIPv4},
		ip, udp, packet.Raw([]byte("tagged"))))

	// GRE-encapsulated inner IPv4 (parse stops at inner_ipv4).
	outer := mkIPv4(packet.IPProtocolGRE, "10.77.0.5")
	inner := mkIPv4(packet.IPProtocolUDP, "10.0.0.9")
	add(mustFrame(eth(testutil.RouterMAC, packet.EtherTypeIPv4), outer,
		&packet.GRE{Protocol: packet.EtherTypeIPv4}, inner, packet.Raw([]byte("encap"))))

	// Destination MACs off the happy path: the PostRewriteDrop fixture's
	// MAC and an unknown unicast MAC.
	add(mustFrame(eth(packet.MAC{0x02, 0, 0, 0, 0x01, 0x01}, packet.EtherTypeIPv4),
		mkIPv4(packet.IPProtocolUDP, "10.0.0.1"), packet.Raw(nil)))
	add(mustFrame(eth(packet.MAC{0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee}, packet.EtherTypeIPv4),
		mkIPv4(packet.IPProtocolUDP, "10.0.0.1"), packet.Raw(nil)))

	// Truncations: mid-ethernet, mid-IPv4, and mid-UDP (the latter parses
	// with an invalid L4 header by design).
	full := testutil.IPv4UDP("10.0.0.1", 64, 53)
	for _, n := range []int{0, 6, 14, 20, 14 + 20 + 3} {
		add(append([]byte(nil), full[:n]...))
	}

	// Seeded garbage of assorted sizes.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{13, 14, 40, 61, 200} {
		b := make([]byte, n)
		rng.Read(b)
		add(b)
	}
	return pkts
}

// diffOutcome reports the first divergence between two outcomes, or nil.
func diffOutcome(a, b *bmv2.Outcome) error {
	if a.Disposition != b.Disposition {
		return fmt.Errorf("disposition %v vs %v", a.Disposition, b.Disposition)
	}
	if a.EgressPort != b.EgressPort {
		return fmt.Errorf("egress port %d vs %d", a.EgressPort, b.EgressPort)
	}
	if a.CopyToCPU != b.CopyToCPU {
		return fmt.Errorf("copy-to-cpu %v vs %v", a.CopyToCPU, b.CopyToCPU)
	}
	if !bytes.Equal(a.Packet, b.Packet) {
		return fmt.Errorf("packet bytes\n  %x\nvs\n  %x", a.Packet, b.Packet)
	}
	if len(a.Mirrors) != len(b.Mirrors) {
		return fmt.Errorf("%d mirrors vs %d", len(a.Mirrors), len(b.Mirrors))
	}
	for i := range a.Mirrors {
		if a.Mirrors[i].Session != b.Mirrors[i].Session || !bytes.Equal(a.Mirrors[i].Packet, b.Mirrors[i].Packet) {
			return fmt.Errorf("mirror %d: %v vs %v", i, a.Mirrors[i], b.Mirrors[i])
		}
	}
	if len(a.Trace) != len(b.Trace) {
		return fmt.Errorf("trace length %d vs %d\n  %v\nvs\n  %v", len(a.Trace), len(b.Trace), a.Trace, b.Trace)
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			return fmt.Errorf("trace[%d] %+v vs %+v", i, a.Trace[i], b.Trace[i])
		}
	}
	if a.Signature() != b.Signature() {
		return fmt.Errorf("signature %q vs %q", a.Signature(), b.Signature())
	}
	return nil
}

// compareInput drives one input through both engines' BehaviorSet (which
// exercises Run) from a reset state and asserts bit-identical outcomes.
func compareInput(t *testing.T, interp, comp bmv2.Simulator, in bmv2.Input) {
	t.Helper()
	interp.Reset()
	comp.Reset()
	want, errI := interp.BehaviorSet(in, 32)
	got, errC := comp.BehaviorSet(in, 32)
	if (errI != nil) != (errC != nil) {
		t.Fatalf("port %d pkt %x: interp err %v, compiled err %v", in.Port, in.Packet, errI, errC)
	}
	if errI != nil {
		return
	}
	if len(want) != len(got) {
		t.Fatalf("port %d pkt %x: %d behaviors vs %d", in.Port, in.Packet, len(want), len(got))
	}
	for i := range want {
		if err := diffOutcome(want[i], got[i]); err != nil {
			t.Fatalf("port %d pkt %x behavior %d: %v", in.Port, in.Packet, i, err)
		}
	}
}

type fixtureFn func(*ir.Program, *pdpi.Store)

var fixtureSets = []struct {
	name    string
	wanOnly bool
	fns     []fixtureFn
}{
	{name: "empty"},
	{name: "routing", fns: []fixtureFn{testutil.RoutingFixture}},
	{name: "routing+acl", fns: []fixtureFn{
		testutil.RoutingFixture, testutil.ACLShadowFixture, testutil.ICMPTrapFixture,
		testutil.PostRewriteDropFixture, testutil.DefaultRouteFixture,
	}},
	{name: "routing+wcmp", fns: []fixtureFn{
		testutil.RoutingFixture, testutil.WideWCMPFixture,
		testutil.DupBucketWCMPFixture, testutil.ManyRIFsFixture,
	}},
	{name: "routing+tunnel", wanOnly: true, fns: []fixtureFn{
		testutil.RoutingFixture, testutil.TunnelFixture,
	}},
}

// TestDifferentialFixtures drives the full corpus through the IR
// interpreter and the compiled pipeline over every model × fixture set,
// asserting bit-identical behavior sets (traces included).
func TestDifferentialFixtures(t *testing.T) {
	for _, model := range models.Names() {
		prog := models.MustLoad(model)
		for _, fx := range fixtureSets {
			if fx.wanOnly && model != "wan" {
				continue
			}
			t.Run(model+"/"+fx.name, func(t *testing.T) {
				store := pdpi.NewStore()
				for _, fn := range fx.fns {
					fn(prog, store)
				}
				interp, err := bmv2.New(prog, store)
				if err != nil {
					t.Fatal(err)
				}
				comp, err := compile.New(prog, store)
				if err != nil {
					t.Fatal(err)
				}
				for _, pkt := range corpus() {
					for _, port := range []uint16{1, 2, 5} {
						compareInput(t, interp, comp, bmv2.Input{Port: port, Packet: pkt})
					}
				}
			})
		}
	}
}

// TestDifferentialWorkloadEntries checks parity under workload-generated
// entry sets, which cover far more key shapes (ternary masks, optional
// keys, wide WCMP groups) than the hand-written fixtures. Besides the
// fixed corpus, it drives the packets p4-symbolic generates for the
// entry set with a data-plane campaign's generator options: one packet
// per reachable entry and branch, so every table's lookup is exercised
// on the rows that win, not only on the few the corpus frames reach.
func TestDifferentialWorkloadEntries(t *testing.T) {
	for _, model := range models.Names() {
		t.Run(model, func(t *testing.T) {
			prog := models.MustLoad(model)
			store := pdpi.NewStore()
			for _, e := range workload.MustEntries(prog, 400, 7) {
				if err := store.Insert(e); err != nil {
					t.Fatalf("installing workload entry: %v", err)
				}
			}
			interp, err := bmv2.New(prog, store)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := compile.New(prog, store)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkt := range corpus() {
				for _, port := range []uint16{1, 7} {
					compareInput(t, interp, comp, bmv2.Input{Port: port, Packet: pkt})
				}
			}
			generated, _, err := symbolic.GeneratePacketsParallel(prog, store, symbolic.Options{}, symbolic.GenOptions{
				Mode:              symbolic.CoverBranches,
				Enriched:          true,
				UnreachableTables: check.Cached(prog).UnreachableSet(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(generated) < 400 {
				t.Fatalf("%d generated packets for 400 entries", len(generated))
			}
			for _, pkt := range generated {
				compareInput(t, interp, comp, bmv2.Input{Port: pkt.Port, Packet: pkt.Data})
			}
		})
	}
}

// TestDifferentialChurn mutates the store between runs and checks that
// a pipeline compiled after each mutation matches the interpreter, which
// reads the store live, through insert, delete, and clear.
func TestDifferentialChurn(t *testing.T) {
	prog := models.MustLoad("middleblock")
	store := pdpi.NewStore()
	testutil.RoutingFixture(prog, store)
	interp, err := bmv2.New(prog, store)
	if err != nil {
		t.Fatal(err)
	}

	probe := func(tag string) {
		t.Helper()
		comp, err := compile.New(prog, store)
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range []string{"10.0.0.1", "10.99.1.2", "10.50.0.1", "192.0.2.1"} {
			in := bmv2.Input{Port: 1, Packet: testutil.IPv4UDP(dst, 64, 53)}
			interp.Reset()
			comp.Reset()
			want, errI := interp.Run(in)
			got, errC := comp.Run(in)
			if errI != nil || errC != nil {
				t.Fatalf("%s dst %s: interp err %v, compiled err %v", tag, dst, errI, errC)
			}
			if err := diffOutcome(want, got); err != nil {
				t.Fatalf("%s dst %s: %v", tag, dst, err)
			}
		}
	}
	probe("baseline")

	ipv4, ok := prog.TableByName("ipv4_table")
	if !ok {
		t.Fatal("no ipv4_table")
	}
	routeAction := store.Entries("ipv4_table")[0].Action
	newRoute := &pdpi.Entry{
		Table: ipv4,
		Matches: []pdpi.Match{
			{Key: "vrf_id", Kind: ir.MatchExact, Value: value.Zero(10)},
			{Key: "ipv4_dst", Kind: ir.MatchLPM, Value: value.New(0x0a320000, 32), PrefixLen: 16},
		},
		Action: routeAction,
	}
	if err := store.Insert(newRoute); err != nil {
		t.Fatal(err)
	}
	probe("after insert 10.50/16")

	if err := store.Delete(newRoute); err != nil {
		t.Fatal(err)
	}
	probe("after delete 10.50/16")

	store.Clear()
	probe("after clear")

	testutil.RoutingFixture(prog, store)
	probe("after reinstall")
}
