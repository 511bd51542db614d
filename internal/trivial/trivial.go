// Package trivial implements the paper's "trivial suite" of traditional
// integration tests (§6.2), used to estimate how many SwitchV-found bugs
// simpler testing would have caught. The six tests run in sequence; a bug
// is attributed to the first test that fails.
package trivial

import (
	"bytes"
	"fmt"
	"time"

	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4rt"
	"switchv/internal/packet"
	"switchv/internal/switchsim"
	"switchv/internal/testutil"
)

// DataPlane matches the harness's injection interface.
type DataPlane = p4rt.DataPlaneDevice

// TestNames lists the suite in execution order, matching Table 2's rows.
var TestNames = []string{
	"Set P4Info",
	"Table entry programming",
	"Read all tables",
	"Packet-in",
	"Packet-out",
	"Packet forwarding",
}

// EgressObserver is optionally implemented by switches whose directly
// transmitted frames (PacketOut) can be captured.
type EgressObserver interface {
	TakeEgress() []switchsim.EgressFrame
}

// Result is the outcome of one suite run.
type Result struct {
	// FailedTest is the first failing test's name, or "" if all passed.
	FailedTest string
	// Err describes the failure.
	Err error
}

// Run executes the suite against a switch. Entries for test 2 come from
// the shared routing fixture, which touches every table of the model.
func Run(info *p4info.Info, dev p4rt.Device, dp DataPlane) Result {
	s := &suite{info: info, dev: dev, dp: dp}
	steps := []func() error{
		s.setP4Info,
		s.programEntries,
		s.readAllTables,
		s.packetIn,
		s.packetOut,
		s.packetForwarding,
	}
	for i, step := range steps {
		if err := step(); err != nil {
			return Result{FailedTest: TestNames[i], Err: err}
		}
	}
	return Result{}
}

type suite struct {
	info    *p4info.Info
	dev     p4rt.Device
	dp      DataPlane
	entries []*pdpi.Entry
}

// setP4Info pushes the pipeline configuration.
func (s *suite) setP4Info() error {
	return s.dev.SetForwardingPipelineConfig(p4rt.ForwardingPipelineConfig{P4Info: s.info.Text()})
}

// programEntries installs a rule in every table, including an ACL entry
// that punts packets to the controller and an IPv4 route.
func (s *suite) programEntries() error {
	store := pdpi.NewStore()
	testutil.RoutingFixture(s.info.Program(), store)
	s.entries = testutil.InstallOrder(s.info, store)
	for _, e := range s.entries {
		resp := s.dev.Write(p4rt.WriteRequest{Updates: []p4rt.Update{{Type: p4rt.Insert, Entry: p4rt.ToWire(e)}}})
		if !resp.OK() {
			return fmt.Errorf("installing %s: %s", e, resp.String())
		}
	}
	return nil
}

// readAllTables reads back all tables and compares with the installed set.
func (s *suite) readAllTables() error {
	rr, err := s.dev.Read(p4rt.ReadRequest{})
	if err != nil {
		return err
	}
	got := map[string]bool{}
	for i := range rr.Entries {
		e, err := p4rt.FromWire(s.info, &rr.Entries[i])
		if err != nil {
			return fmt.Errorf("read-back entry %d malformed: %v", i, err)
		}
		got[e.Key()] = true
	}
	for _, want := range s.entries {
		if !got[want.Key()] {
			return fmt.Errorf("installed entry missing from read: %s", want.Key())
		}
	}
	if len(got) != len(s.entries) {
		return fmt.Errorf("read %d entries, installed %d", len(got), len(s.entries))
	}
	return nil
}

// packetIn sends a packet matching the punt ACL rule and checks that it
// arrives on the packet-io channel.
func (s *suite) packetIn() error {
	frame := bgpFrame()
	res, err := s.dp.InjectFrame(p4rt.InjectRequest{Port: 1, Frame: frame})
	if err != nil {
		return err
	}
	if !res.Punted {
		return fmt.Errorf("punt-rule packet was not punted (result %+v)", res)
	}
	select {
	case pin, ok := <-s.dev.PacketIns():
		if !ok {
			return fmt.Errorf("packet-in stream closed")
		}
		if len(pin.Payload) == 0 {
			return fmt.Errorf("empty packet-in payload")
		}
	case <-time.After(time.Second): //detlint:allow timeafter — generous bound on a punt the model guarantees
		return fmt.Errorf("no packet-in received on the stream")
	}
	return nil
}

// packetOut sends a packet via packet-out for several ports and verifies
// the switch transmits it on those ports.
func (s *suite) packetOut() error {
	obs, ok := s.dp.(EgressObserver)
	if !ok {
		return nil // no capture available; vacuous pass
	}
	obs.TakeEgress() // drain
	payload := []byte("trivial-packet-out")
	for _, port := range []uint16{1, 2, 3} {
		if err := s.dev.PacketOut(p4rt.PacketOut{Payload: payload, EgressPort: port}); err != nil {
			return fmt.Errorf("packet-out on port %d: %v", port, err)
		}
	}
	// Packet-outs must not come back as packet-ins.
	select {
	case pin := <-s.dev.PacketIns():
		return fmt.Errorf("packet-out was punted back to the controller (%d bytes)", len(pin.Payload))
	default:
	}
	frames := obs.TakeEgress()
	seen := map[uint16]bool{}
	for _, f := range frames {
		if bytes.Equal(f.Frame, payload) {
			seen[f.Port] = true
		}
	}
	for _, port := range []uint16{1, 2, 3} {
		if !seen[port] {
			return fmt.Errorf("packet-out frame did not egress on port %d", port)
		}
	}
	return nil
}

// packetForwarding sends an IPv4 packet and checks it is forwarded
// according to the route installed earlier.
func (s *suite) packetForwarding() error {
	res, err := s.dp.InjectFrame(p4rt.InjectRequest{Port: 1, Frame: testutil.IPv4UDP("10.1.2.3", 64, 2000)})
	if err != nil {
		return err
	}
	if res.Punted || res.Dropped {
		return fmt.Errorf("routed packet not forwarded: %+v", res)
	}
	if res.EgressPort != 11 {
		return fmt.Errorf("forwarded to port %d, want 11", res.EgressPort)
	}
	p := packet.NewPacket(res.Frame, packet.LayerTypeEthernet)
	if p.IPv4() == nil || p.IPv4().TTL != 63 {
		return fmt.Errorf("output packet not rewritten correctly: %s", p)
	}
	return nil
}

// bgpFrame matches the fixture's TCP/179 punt rule.
func bgpFrame() []byte {
	ip := &packet.IPv4{TTL: 64, Protocol: packet.IPProtocolTCP,
		SrcIP: packet.MustParseIPv4("192.168.1.1"), DstIP: packet.MustParseIPv4("10.1.2.3")}
	tcp := &packet.TCP{SrcPort: 33333, DstPort: 179}
	tcp.SetNetworkLayerForChecksum(ip.SrcIP[:], ip.DstIP[:])
	data, err := packet.Serialize(packet.SerializeOptions{FixLengths: true, ComputeChecksums: true},
		&packet.Ethernet{DstMAC: testutil.RouterMAC, EtherType: packet.EtherTypeIPv4}, ip, tcp)
	if err != nil {
		panic(err)
	}
	return data
}
