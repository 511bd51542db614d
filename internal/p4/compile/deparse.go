package compile

import (
	"encoding/binary"
	"fmt"

	"switchv/internal/bmv2"
	"switchv/internal/p4/value"
	"switchv/internal/packet"
)

// deparse reconstructs packet bytes from the field space plus the opaque
// payload, recomputing lengths and checksums. It reads the fields
// through the program's bmv2.Layout and is a flat single-pass writer
// into one buffer reused across packets, but its output is
// byte-identical to the interpreter's packet.Serialize assembly, which
// looks its fields up by name: headers appear in the same fixed layer
// order, uncaptured fields (TCP seq/ack/window, IPv4 flags, ARP MACs)
// serialize as zero, and checksums are finalized innermost-first so an
// outer transport checksum covers the final bytes of inner headers.
func (p *Pipeline) deparse(fs []value.V, payload []byte) ([]byte, error) {
	l := p.layout
	hasEth := l.Eth.Valid.IsSet(fs)
	hasVlan := l.VLAN.Valid.IsSet(fs)
	hasArp := l.ARP.Valid.IsSet(fs)
	hasIP4 := l.IPv4.Valid.IsSet(fs)
	hasGre := l.GRE.Valid.IsSet(fs)
	hasInner := l.Inner.Valid.IsSet(fs)
	hasIP6 := l.IPv6.Valid.IsSet(fs)
	hasTCP := l.TCP.Valid.IsSet(fs)
	hasUDP := l.UDP.Valid.IsSet(fs)
	hasICMP := l.ICMP.Valid.IsSet(fs)

	total := len(payload)
	if hasEth {
		total += 14
	}
	if hasVlan {
		total += 4
	}
	if hasArp {
		total += 28
	}
	if hasIP4 {
		total += 20
	}
	if hasGre {
		total += 4
	}
	if hasInner {
		total += 20
	}
	if hasIP6 {
		total += 40
	}
	if hasTCP {
		total += 20
	}
	if hasUDP {
		total += 8
	}
	if hasICMP {
		total += 8
	}
	if cap(p.flat) < total {
		p.flat = make([]byte, total+256)
	}
	b := p.flat[:total]

	// Pass 1: write every header front to back, checksum fields zeroed.
	off := 0
	if hasEth {
		d := l.Eth.Dst.Get(fs)
		s := l.Eth.Src.Get(fs)
		for i := 0; i < 6; i++ {
			b[off+5-i] = byte(d >> uint(8*i))
			b[off+11-i] = byte(s >> uint(8*i))
		}
		binary.BigEndian.PutUint16(b[off+12:], uint16(l.Eth.Type.Get(fs)))
		off += 14
	}
	if hasVlan {
		prio := l.VLAN.Prio.Get(fs)
		vid := l.VLAN.ID.Get(fs)
		if prio > 7 {
			return nil, fmt.Errorf("packet: VLAN priority %d out of range", prio)
		}
		if vid > 0x0fff {
			return nil, fmt.Errorf("packet: VLAN ID %d out of range", vid)
		}
		tci := uint16(prio)<<13 | uint16(vid)
		if l.VLAN.DropElig.Get(fs) == 1 {
			tci |= 0x1000
		}
		binary.BigEndian.PutUint16(b[off:], tci)
		binary.BigEndian.PutUint16(b[off+2:], uint16(l.VLAN.Type.Get(fs)))
		off += 4
	}
	if hasArp {
		clear(b[off : off+28])
		binary.BigEndian.PutUint16(b[off:], 1) // Ethernet
		binary.BigEndian.PutUint16(b[off+2:], packet.EtherTypeIPv4)
		b[off+4] = 6 // hardware address length
		b[off+5] = 4 // protocol address length
		binary.BigEndian.PutUint16(b[off+6:], uint16(l.ARP.Op.Get(fs)))
		binary.BigEndian.PutUint32(b[off+14:], uint32(l.ARP.Sender.Get(fs)))
		binary.BigEndian.PutUint32(b[off+24:], uint32(l.ARP.Target.Get(fs)))
		off += 28
	}
	writeIPv4 := func(off int, r *bmv2.IPv4Refs) {
		b[off] = 4<<4 | 5 // version 4, IHL 5 words
		b[off+1] = uint8(r.DSCP.Get(fs))<<2 | uint8(r.ECN.Get(fs))
		binary.BigEndian.PutUint16(b[off+2:], uint16(total-off))
		binary.BigEndian.PutUint16(b[off+4:], uint16(r.ID.Get(fs)))
		binary.BigEndian.PutUint16(b[off+6:], 0) // flags, fragment offset
		b[off+8] = uint8(r.TTL.Get(fs))
		b[off+9] = uint8(r.Proto.Get(fs))
		binary.BigEndian.PutUint16(b[off+10:], 0) // checksum, pass 2
		binary.BigEndian.PutUint32(b[off+12:], uint32(r.Src.Get(fs)))
		binary.BigEndian.PutUint32(b[off+16:], uint32(r.Dst.Get(fs)))
	}
	// netSrc/netDst: pseudo-header endpoints from the innermost network
	// layer, sliced out of the output buffer itself.
	var netSrc, netDst []byte
	ip4Off, innerOff, tcpOff, udpOff, icmpOff := -1, -1, -1, -1, -1
	if hasIP4 {
		ip4Off = off
		writeIPv4(off, &l.IPv4)
		netSrc, netDst = b[off+12:off+16], b[off+16:off+20]
		off += 20
	}
	if hasGre {
		binary.BigEndian.PutUint16(b[off:], 0)
		binary.BigEndian.PutUint16(b[off+2:], uint16(l.GRE.Proto.Get(fs)))
		off += 4
	}
	if hasInner {
		innerOff = off
		writeIPv4(off, &l.Inner)
		netSrc, netDst = b[off+12:off+16], b[off+16:off+20]
		off += 20
	}
	if hasIP6 {
		tc := uint8(l.IPv6.DSCP.Get(fs))<<2 | uint8(l.IPv6.ECN.Get(fs))
		flow := uint32(l.IPv6.Flow.Get(fs))
		b[off] = 6<<4 | tc>>4
		b[off+1] = tc<<4 | uint8(flow>>16)&0x0f
		b[off+2] = uint8(flow >> 8)
		b[off+3] = uint8(flow)
		binary.BigEndian.PutUint16(b[off+4:], uint16(total-off-40))
		b[off+6] = uint8(l.IPv6.Next.Get(fs))
		b[off+7] = uint8(l.IPv6.Hop.Get(fs))
		clear(b[off+8 : off+40])
		if r := l.IPv6.Src; r.Declared() {
			v := fs[r.ID]
			binary.BigEndian.PutUint64(b[off+8:], v.Hi)
			binary.BigEndian.PutUint64(b[off+16:], v.Lo)
		}
		if r := l.IPv6.Dst; r.Declared() {
			v := fs[r.ID]
			binary.BigEndian.PutUint64(b[off+24:], v.Hi)
			binary.BigEndian.PutUint64(b[off+32:], v.Lo)
		}
		netSrc, netDst = b[off+8:off+24], b[off+24:off+40]
		off += 40
	}
	if hasTCP {
		tcpOff = off
		clear(b[off : off+20])
		binary.BigEndian.PutUint16(b[off:], uint16(l.TCP.Src.Get(fs)))
		binary.BigEndian.PutUint16(b[off+2:], uint16(l.TCP.Dst.Get(fs)))
		b[off+12] = 5 << 4 // data offset: 5 words
		b[off+13] = uint8(l.TCP.Flags.Get(fs))
		off += 20
	}
	if hasUDP {
		udpOff = off
		binary.BigEndian.PutUint16(b[off:], uint16(l.UDP.Src.Get(fs)))
		binary.BigEndian.PutUint16(b[off+2:], uint16(l.UDP.Dst.Get(fs)))
		binary.BigEndian.PutUint16(b[off+4:], uint16(total-off))
		binary.BigEndian.PutUint16(b[off+6:], 0)
		off += 8
	}
	if hasICMP {
		icmpOff = off
		clear(b[off : off+8])
		b[off] = uint8(l.ICMP.Type.Get(fs))
		b[off+1] = uint8(l.ICMP.Code.Get(fs))
		off += 8
	}
	copy(b[off:], payload)

	// Pass 2: checksums, innermost layer first (the SerializeLayers
	// prepend order), so each covers the final bytes of layers below it.
	if icmpOff >= 0 {
		if hasIP6 {
			if netSrc != nil {
				sum := packet.PseudoHeaderSum(netSrc, netDst, packet.IPProtocolICMPv6, total-icmpOff)
				binary.BigEndian.PutUint16(b[icmpOff+2:], packet.InternetChecksum(b[icmpOff:], sum))
			}
		} else {
			binary.BigEndian.PutUint16(b[icmpOff+2:], packet.InternetChecksum(b[icmpOff:], 0))
		}
	}
	if udpOff >= 0 && netSrc != nil {
		sum := packet.PseudoHeaderSum(netSrc, netDst, packet.IPProtocolUDP, total-udpOff)
		ck := packet.InternetChecksum(b[udpOff:], sum)
		if ck == 0 {
			ck = 0xffff // RFC 768: transmitted as all-ones
		}
		binary.BigEndian.PutUint16(b[udpOff+6:], ck)
	}
	if tcpOff >= 0 && netSrc != nil {
		sum := packet.PseudoHeaderSum(netSrc, netDst, packet.IPProtocolTCP, total-tcpOff)
		binary.BigEndian.PutUint16(b[tcpOff+16:], packet.InternetChecksum(b[tcpOff:], sum))
	}
	if innerOff >= 0 {
		binary.BigEndian.PutUint16(b[innerOff+10:], packet.InternetChecksum(b[innerOff:innerOff+20], 0))
	}
	if ip4Off >= 0 {
		binary.BigEndian.PutUint16(b[ip4Off+10:], packet.InternetChecksum(b[ip4Off:ip4Off+20], 0))
	}
	// The returned slice aliases the pipeline's reusable buffer and is
	// only valid until the next deparse; the caller copies it out if
	// retained.
	return b, nil
}
