// Package bmv2 implements the reference P4 simulator that SwitchV runs
// test packets through to obtain the model's expected behavior (standing
// in for the BMv2 simple_switch target). It interprets the compiled IR
// directly: a packet is parsed onto the flattened field space, the
// pipeline controls execute concretely against the installed table
// entries, and the resulting field space is deparsed back into a packet.
//
// Parsing is semi-hardcoded, as in the paper (§5 "Limitations"): header
// instances declared under the model's headers struct are mapped onto
// protocol layers by their conventional instance names (ethernet, vlan,
// ipv4, ipv6, gre, inner_ipv4, tcp, udp, icmp, arp).
package bmv2

import (
	"fmt"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/value"
	"switchv/internal/packet"
)

// fieldSpace is the concrete state of one packet traversal.
type fieldSpace []value.V

func newFieldSpace(prog *ir.Program) fieldSpace {
	fs := make(fieldSpace, len(prog.Fields))
	for i, f := range prog.Fields {
		fs[i] = value.Zero(f.Width)
	}
	return fs
}

// setF assigns a field, by its name under the headers struct
// ("ipv4.ttl"), if the model declares it.
func (sim *Interp) setF(fs fieldSpace, name string, v uint64) {
	if f, ok := sim.prog.HeaderField(name); ok {
		fs[f.ID] = value.New(v, f.Width)
	}
}

func (sim *Interp) setF128(fs fieldSpace, name string, hi, lo uint64) {
	if f, ok := sim.prog.HeaderField(name); ok {
		fs[f.ID] = value.New128(hi, lo, f.Width)
	}
}

func (sim *Interp) getF(fs fieldSpace, name string) (value.V, bool) {
	if f, ok := sim.prog.HeaderField(name); ok {
		return fs[f.ID], true
	}
	return value.V{}, false
}

func (sim *Interp) hasInstance(name string) bool {
	_, ok := sim.prog.HeaderField(name + ".$valid")
	return ok
}

func be48(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

// parse decodes raw packet bytes onto the field space. Layers without a
// corresponding header instance in the model end the parse; the remaining
// bytes (opaque to the model) are returned as payload.
func (sim *Interp) parse(fs fieldSpace, data []byte) (payload []byte, err error) {
	rest := data

	var eth packet.Ethernet
	if !sim.hasInstance("ethernet") {
		return rest, fmt.Errorf("bmv2: model has no ethernet header instance")
	}
	rest, err = eth.DecodeFromBytes(rest)
	if err != nil {
		return nil, err
	}
	sim.setF(fs, "ethernet.$valid", 1)
	sim.setF(fs, "ethernet.dst_addr", be48(eth.DstMAC[:]))
	sim.setF(fs, "ethernet.src_addr", be48(eth.SrcMAC[:]))
	sim.setF(fs, "ethernet.ether_type", uint64(eth.EtherType))

	etherType := eth.EtherType
	if etherType == packet.EtherTypeVLAN && sim.hasInstance("vlan") {
		var vlan packet.VLAN
		rest, err = vlan.DecodeFromBytes(rest)
		if err != nil {
			return nil, err
		}
		sim.setF(fs, "vlan.$valid", 1)
		sim.setF(fs, "vlan.priority", uint64(vlan.Priority))
		de := uint64(0)
		if vlan.DropElig {
			de = 1
		}
		sim.setF(fs, "vlan.drop_eligible", de)
		sim.setF(fs, "vlan.vlan_id", uint64(vlan.VLANID))
		sim.setF(fs, "vlan.ether_type", uint64(vlan.EtherType))
		etherType = vlan.EtherType
	}

	switch etherType {
	case packet.EtherTypeARP:
		if !sim.hasInstance("arp") {
			return rest, nil
		}
		var arp packet.ARP
		rest, err = arp.DecodeFromBytes(rest)
		if err != nil {
			return nil, err
		}
		sim.setF(fs, "arp.$valid", 1)
		sim.setF(fs, "arp.operation", uint64(arp.Operation))
		sim.setF(fs, "arp.sender_ip", uint64(arp.SenderIP.Uint32()))
		sim.setF(fs, "arp.target_ip", uint64(arp.TargetIP.Uint32()))
		return rest, nil
	case packet.EtherTypeIPv4:
		return sim.parseIPv4(fs, rest, "ipv4")
	case packet.EtherTypeIPv6:
		return sim.parseIPv6(fs, rest)
	default:
		return rest, nil
	}
}

func (sim *Interp) parseIPv4(fs fieldSpace, data []byte, instance string) ([]byte, error) {
	if !sim.hasInstance(instance) {
		return data, nil
	}
	var ip packet.IPv4
	rest, err := ip.DecodeFromBytes(data)
	if err != nil {
		return nil, err
	}
	base := instance
	sim.setF(fs, base+".$valid", 1)
	sim.setF(fs, base+".dscp", uint64(ip.DSCP()))
	sim.setF(fs, base+".ecn", uint64(ip.TOS&0x3))
	sim.setF(fs, base+".identification", uint64(ip.ID))
	sim.setF(fs, base+".ttl", uint64(ip.TTL))
	sim.setF(fs, base+".protocol", uint64(ip.Protocol))
	sim.setF(fs, base+".src_addr", uint64(ip.SrcIP.Uint32()))
	sim.setF(fs, base+".dst_addr", uint64(ip.DstIP.Uint32()))
	if instance != "ipv4" {
		// Inner headers end the parse; anything below is payload.
		return rest, nil
	}
	switch ip.Protocol {
	case packet.IPProtocolGRE:
		return sim.parseGRE(fs, rest)
	default:
		return sim.parseL4(fs, rest, ip.Protocol)
	}
}

func (sim *Interp) parseIPv6(fs fieldSpace, data []byte) ([]byte, error) {
	if !sim.hasInstance("ipv6") {
		return data, nil
	}
	var ip packet.IPv6
	rest, err := ip.DecodeFromBytes(data)
	if err != nil {
		return nil, err
	}
	base := "ipv6"
	sim.setF(fs, base+".$valid", 1)
	sim.setF(fs, base+".dscp", uint64(ip.DSCP()))
	sim.setF(fs, base+".ecn", uint64(ip.TrafficClass&0x3))
	sim.setF(fs, base+".flow_label", uint64(ip.FlowLabel))
	sim.setF(fs, base+".next_header", uint64(ip.NextHeader))
	sim.setF(fs, base+".hop_limit", uint64(ip.HopLimit))
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(ip.SrcIP[i])
		lo = lo<<8 | uint64(ip.SrcIP[i+8])
	}
	sim.setF128(fs, base+".src_addr", hi, lo)
	hi, lo = 0, 0
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(ip.DstIP[i])
		lo = lo<<8 | uint64(ip.DstIP[i+8])
	}
	sim.setF128(fs, base+".dst_addr", hi, lo)
	return sim.parseL4(fs, rest, ip.NextHeader)
}

func (sim *Interp) parseGRE(fs fieldSpace, data []byte) ([]byte, error) {
	if !sim.hasInstance("gre") {
		return data, nil
	}
	var gre packet.GRE
	rest, err := gre.DecodeFromBytes(data)
	if err != nil {
		return nil, err
	}
	sim.setF(fs, "gre.$valid", 1)
	sim.setF(fs, "gre.protocol", uint64(gre.Protocol))
	if gre.Protocol == packet.EtherTypeIPv4 {
		return sim.parseIPv4(fs, rest, "inner_ipv4")
	}
	return rest, nil
}

// parseL4 decodes the transport layer. A truncated transport header does
// not fail the parse: the remaining bytes stay opaque payload and the L4
// header simply stays invalid, as in a real parser's accept-on-short path.
func (sim *Interp) parseL4(fs fieldSpace, data []byte, proto uint8) ([]byte, error) {
	switch proto {
	case packet.IPProtocolTCP:
		if !sim.hasInstance("tcp") {
			return data, nil
		}
		var tcp packet.TCP
		rest, err := tcp.DecodeFromBytes(data)
		if err != nil {
			return data, nil
		}
		sim.setF(fs, "tcp.$valid", 1)
		sim.setF(fs, "tcp.src_port", uint64(tcp.SrcPort))
		sim.setF(fs, "tcp.dst_port", uint64(tcp.DstPort))
		sim.setF(fs, "tcp.flags", uint64(tcp.Flags))
		return rest, nil
	case packet.IPProtocolUDP:
		if !sim.hasInstance("udp") {
			return data, nil
		}
		var udp packet.UDP
		rest, err := udp.DecodeFromBytes(data)
		if err != nil {
			return data, nil
		}
		sim.setF(fs, "udp.$valid", 1)
		sim.setF(fs, "udp.src_port", uint64(udp.SrcPort))
		sim.setF(fs, "udp.dst_port", uint64(udp.DstPort))
		return rest, nil
	case packet.IPProtocolICMPv4, packet.IPProtocolICMPv6:
		if !sim.hasInstance("icmp") {
			return data, nil
		}
		var ic packet.ICMPv4 // same leading layout as ICMPv6
		rest, err := ic.DecodeFromBytes(data)
		if err != nil {
			return data, nil
		}
		sim.setF(fs, "icmp.$valid", 1)
		sim.setF(fs, "icmp.type", uint64(ic.Type))
		sim.setF(fs, "icmp.code", uint64(ic.Code))
		return rest, nil
	default:
		return data, nil
	}
}

// deparse reconstructs packet bytes from the field space plus the opaque
// payload preserved by parse. Lengths and checksums are recomputed.
func (sim *Interp) deparse(fs fieldSpace, payload []byte) ([]byte, error) {
	valid := func(instance string) bool {
		v, ok := sim.getF(fs, instance+".$valid")
		return ok && !v.IsZero()
	}
	get := func(name string) uint64 {
		v, _ := sim.getF(fs, name)
		return v.Uint64()
	}

	var layers []packet.SerializableLayer
	if valid("ethernet") {
		eth := &packet.Ethernet{EtherType: uint16(get("ethernet.ether_type"))}
		d := get("ethernet.dst_addr")
		s := get("ethernet.src_addr")
		for i := 0; i < 6; i++ {
			eth.DstMAC[5-i] = byte(d >> uint(8*i))
			eth.SrcMAC[5-i] = byte(s >> uint(8*i))
		}
		layers = append(layers, eth)
	}
	if valid("vlan") {
		layers = append(layers, &packet.VLAN{
			Priority:  uint8(get("vlan.priority")),
			DropElig:  get("vlan.drop_eligible") == 1,
			VLANID:    uint16(get("vlan.vlan_id")),
			EtherType: uint16(get("vlan.ether_type")),
		})
	}
	if valid("arp") {
		layers = append(layers, &packet.ARP{
			Operation: uint16(get("arp.operation")),
			SenderIP:  packet.IPv4AddrFromUint32(uint32(get("arp.sender_ip"))),
			TargetIP:  packet.IPv4AddrFromUint32(uint32(get("arp.target_ip"))),
		})
	}
	mkIPv4 := func(instance string) *packet.IPv4 {
		ip := &packet.IPv4{
			TOS:      uint8(get(instance+".dscp"))<<2 | uint8(get(instance+".ecn")),
			ID:       uint16(get(instance + ".identification")),
			TTL:      uint8(get(instance + ".ttl")),
			Protocol: uint8(get(instance + ".protocol")),
			SrcIP:    packet.IPv4AddrFromUint32(uint32(get(instance + ".src_addr"))),
			DstIP:    packet.IPv4AddrFromUint32(uint32(get(instance + ".dst_addr"))),
		}
		return ip
	}
	var innerIPSrc, innerIPDst []byte
	if valid("ipv4") {
		ip := mkIPv4("ipv4")
		innerIPSrc, innerIPDst = ip.SrcIP[:], ip.DstIP[:]
		layers = append(layers, ip)
	}
	if valid("gre") {
		layers = append(layers, &packet.GRE{Protocol: uint16(get("gre.protocol"))})
	}
	if valid("inner_ipv4") {
		ip := mkIPv4("inner_ipv4")
		innerIPSrc, innerIPDst = ip.SrcIP[:], ip.DstIP[:]
		layers = append(layers, ip)
	}
	isV6 := false
	if valid("ipv6") {
		f, _ := sim.prog.HeaderField("ipv6.src_addr")
		src := fs[f.ID]
		f, _ = sim.prog.HeaderField("ipv6.dst_addr")
		dst := fs[f.ID]
		ip := &packet.IPv6{
			TrafficClass: uint8(get("ipv6.dscp"))<<2 | uint8(get("ipv6.ecn")),
			FlowLabel:    uint32(get("ipv6.flow_label")),
			NextHeader:   uint8(get("ipv6.next_header")),
			HopLimit:     uint8(get("ipv6.hop_limit")),
		}
		copy(ip.SrcIP[:], src.Bytes())
		copy(ip.DstIP[:], dst.Bytes())
		innerIPSrc, innerIPDst = ip.SrcIP[:], ip.DstIP[:]
		isV6 = true
		layers = append(layers, ip)
	}
	if valid("tcp") {
		tcp := &packet.TCP{
			SrcPort: uint16(get("tcp.src_port")),
			DstPort: uint16(get("tcp.dst_port")),
			Flags:   uint8(get("tcp.flags")),
		}
		tcp.SetNetworkLayerForChecksum(innerIPSrc, innerIPDst)
		layers = append(layers, tcp)
	}
	if valid("udp") {
		udp := &packet.UDP{
			SrcPort: uint16(get("udp.src_port")),
			DstPort: uint16(get("udp.dst_port")),
		}
		udp.SetNetworkLayerForChecksum(innerIPSrc, innerIPDst)
		layers = append(layers, udp)
	}
	if valid("icmp") {
		if isV6 {
			ic := &packet.ICMPv6{Type: uint8(get("icmp.type")), Code: uint8(get("icmp.code"))}
			ic.SetNetworkLayerForChecksum(innerIPSrc, innerIPDst)
			layers = append(layers, ic)
		} else {
			layers = append(layers, &packet.ICMPv4{Type: uint8(get("icmp.type")), Code: uint8(get("icmp.code"))})
		}
	}
	layers = append(layers, packet.Raw(payload))
	return packet.Serialize(packet.SerializeOptions{FixLengths: true, ComputeChecksums: true}, layers...)
}

// DeparseFields reconstructs packet bytes from a complete field
// assignment, one value per program field in ID order. p4-symbolic uses
// this to materialize test packets from SMT models.
func DeparseFields(prog *ir.Program, fields []value.V, payload []byte) ([]byte, error) {
	if len(fields) != len(prog.Fields) {
		return nil, fmt.Errorf("bmv2: got %d field values for %d fields", len(fields), len(prog.Fields))
	}
	sim := &Interp{prog: prog}
	return sim.deparse(fieldSpace(fields), payload)
}

// ParseFields decodes packet bytes onto a fresh field assignment (one
// value per program field, in ID order), returning the opaque payload.
// The SwitchV harness uses this to compare switch and simulator outputs
// on model-visible fields only.
func ParseFields(prog *ir.Program, data []byte) ([]value.V, []byte, error) {
	sim := &Interp{prog: prog}
	fs := newFieldSpace(prog)
	payload, err := sim.parse(fs, data)
	return fs, payload, err
}
