package packet

import (
	"fmt"
	"strings"
)

// Packet is a fully decoded stack of layers.
type Packet struct {
	data   []byte
	layers []Layer
	err    error
}

// NewPacket eagerly decodes data starting from the given first layer type.
// Decoding errors do not abort the packet: the layers decoded so far are
// retained and the error is available via ErrorLayer, mirroring gopacket's
// behavior of salvaging outer layers from inner corruption.
func NewPacket(data []byte, first LayerType) *Packet {
	p := &Packet{data: append([]byte(nil), data...)}
	rest := p.data
	next := first
	for next != LayerTypeZero && len(rest) > 0 {
		layer := newLayer(next)
		if layer == nil {
			layer = new(Payload)
		}
		payload, err := layer.DecodeFromBytes(rest)
		if err != nil {
			p.err = err
			return p
		}
		p.layers = append(p.layers, layer)
		rest = payload
		next = layer.NextLayerType()
	}
	return p
}

func newLayer(t LayerType) Layer {
	switch t {
	case LayerTypeEthernet:
		return new(Ethernet)
	case LayerTypeVLAN:
		return new(VLAN)
	case LayerTypeARP:
		return new(ARP)
	case LayerTypeIPv4:
		return new(IPv4)
	case LayerTypeIPv6:
		return new(IPv6)
	case LayerTypeTCP:
		return new(TCP)
	case LayerTypeUDP:
		return new(UDP)
	case LayerTypeICMPv4:
		return new(ICMPv4)
	case LayerTypeICMPv6:
		return new(ICMPv6)
	case LayerTypeGRE:
		return new(GRE)
	case LayerTypePayload:
		return new(Payload)
	default:
		return nil
	}
}

// Layers returns all decoded layers, outermost first.
func (p *Packet) Layers() []Layer { return p.layers }

// Layer returns the first layer of the given type, or nil.
func (p *Packet) Layer(t LayerType) Layer {
	for _, l := range p.layers {
		if l.LayerType() == t {
			return l
		}
	}
	return nil
}

// ErrorLayer returns the decode error encountered, if any.
func (p *Packet) ErrorLayer() error { return p.err }

// Ethernet returns the Ethernet layer, or nil.
func (p *Packet) Ethernet() *Ethernet {
	if l := p.Layer(LayerTypeEthernet); l != nil {
		return l.(*Ethernet)
	}
	return nil
}

// IPv4 returns the first IPv4 layer, or nil.
func (p *Packet) IPv4() *IPv4 {
	if l := p.Layer(LayerTypeIPv4); l != nil {
		return l.(*IPv4)
	}
	return nil
}

// IPv6 returns the first IPv6 layer, or nil.
func (p *Packet) IPv6() *IPv6 {
	if l := p.Layer(LayerTypeIPv6); l != nil {
		return l.(*IPv6)
	}
	return nil
}

// String renders a one-line summary of the layer stack, for incident logs.
func (p *Packet) String() string {
	var parts []string
	for _, l := range p.layers {
		switch v := l.(type) {
		case *Ethernet:
			parts = append(parts, fmt.Sprintf("Eth{%s > %s type=%#04x}", v.SrcMAC, v.DstMAC, v.EtherType))
		case *VLAN:
			parts = append(parts, fmt.Sprintf("VLAN{id=%d}", v.VLANID))
		case *IPv4:
			parts = append(parts, fmt.Sprintf("IPv4{%s > %s ttl=%d proto=%d}", v.SrcIP, v.DstIP, v.TTL, v.Protocol))
		case *IPv6:
			parts = append(parts, fmt.Sprintf("IPv6{%s > %s hop=%d next=%d}", v.SrcIP, v.DstIP, v.HopLimit, v.NextHeader))
		case *TCP:
			parts = append(parts, fmt.Sprintf("TCP{%d > %d}", v.SrcPort, v.DstPort))
		case *UDP:
			parts = append(parts, fmt.Sprintf("UDP{%d > %d}", v.SrcPort, v.DstPort))
		case *ICMPv4:
			parts = append(parts, fmt.Sprintf("ICMPv4{type=%d code=%d}", v.Type, v.Code))
		case *ICMPv6:
			parts = append(parts, fmt.Sprintf("ICMPv6{type=%d code=%d}", v.Type, v.Code))
		case *ARP:
			parts = append(parts, fmt.Sprintf("ARP{op=%d}", v.Operation))
		case *GRE:
			parts = append(parts, fmt.Sprintf("GRE{proto=%#04x}", v.Protocol))
		case *Payload:
			parts = append(parts, fmt.Sprintf("Payload{%d bytes}", len(*v)))
		default:
			parts = append(parts, l.LayerType().String())
		}
	}
	if p.err != nil {
		parts = append(parts, "Error{"+p.err.Error()+"}")
	}
	return strings.Join(parts, " / ")
}
