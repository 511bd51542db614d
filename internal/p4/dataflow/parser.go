package dataflow

import "switchv/internal/p4/ir"

// Validity is the header-validity lattice: Top (may or may not be valid)
// above Valid and Invalid.
type Validity uint8

const (
	// Top: the analysis cannot decide.
	Top Validity = iota
	// Valid: the header is definitely valid at this point.
	Valid
	// Invalid: the header is definitely invalid; non-validity fields read
	// as zero.
	Invalid
)

func (v Validity) String() string {
	switch v {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	default:
		return "⊤"
	}
}

// negate flips Valid/Invalid and fixes Top.
func (v Validity) negate() Validity {
	switch v {
	case Valid:
		return Invalid
	case Invalid:
		return Valid
	default:
		return Top
	}
}

// Join returns the least upper bound of two lattice values.
func Join(a, b Validity) Validity {
	if a == b {
		return a
	}
	return Top
}

// Role classifies how the semi-hardcoded parser reaches a header.
type Role uint8

const (
	// RoleNone: the parser does not know the header; it can only become
	// valid through an explicit setValid.
	RoleNone Role = iota
	// RoleEthernet: the outermost header, always valid.
	RoleEthernet
	// RoleVlan: the optional 802.1Q tag (EtherType 0x8100).
	RoleVlan
	// RoleL3: selected by the effective EtherType after VLAN untagging.
	RoleL3
	// RoleL4: selected by ipv4.protocol / ipv6.next_header.
	RoleL4
	// RoleInner: the GRE payload, selected by gre.protocol.
	RoleInner
)

// Spec describes one header the parser can reach, mirroring exactly the
// couplings symbolic.assertParserAxioms encodes: the discriminator field
// values that make the parser mark the header valid.
type Spec struct {
	Name string // instance name under the headers struct, e.g. "ipv4"
	Role Role
	// EtherType selects RoleVlan/RoleL3 headers (effective EtherType).
	EtherType uint64
	// Proto / V6Next select RoleL4 headers over IPv4 / IPv6; a negative
	// value means the header is unreachable over that IP version (GRE is
	// IPv4-only).
	Proto  int64
	V6Next int64
}

// parserChain is the fixed knowledge the reference parser (and the
// symbolic executor's axioms) have about header instance names, in parse
// order, outermost first: the deterministic iteration order for
// consumers that patch or recompute validity along the chain.
var parserChain = []Spec{
	{Name: "ethernet", Role: RoleEthernet},
	{Name: "vlan", Role: RoleVlan, EtherType: 0x8100},
	{Name: "ipv4", Role: RoleL3, EtherType: 0x0800},
	{Name: "ipv6", Role: RoleL3, EtherType: 0x86DD},
	{Name: "arp", Role: RoleL3, EtherType: 0x0806},
	{Name: "tcp", Role: RoleL4, Proto: 6, V6Next: 6},
	{Name: "udp", Role: RoleL4, Proto: 17, V6Next: 17},
	{Name: "icmp", Role: RoleL4, Proto: 1, V6Next: 58},
	{Name: "gre", Role: RoleL4, Proto: 47, V6Next: -1},
	{Name: "inner_ipv4", Role: RoleInner},
}

// Parser is the static model of the parser for one program: which of its
// header instances the parser can reach and through which discriminator
// fields.
type Parser struct {
	prog  *ir.Program
	specs map[string]Spec // header path -> spec
	chain []Spec          // the program's specs in parse order
}

// ParserOf builds the parser model for a program: a parserChain header
// is known when the program declares it under its headers struct.
func ParserOf(p *ir.Program) *Parser {
	ps := &Parser{prog: p, specs: map[string]Spec{}}
	for _, spec := range parserChain {
		if valid, ok := p.HeaderField(spec.Name + ".$valid"); ok {
			ps.specs[valid.Header] = spec
			ps.chain = append(ps.chain, spec)
		}
	}
	return ps
}

// Chain lists the program's parser-known headers in parse order
// (outermost first). The order is deterministic by construction.
func (ps *Parser) Chain() []Spec { return ps.chain }

// Spec returns the parser spec for a header path.
func (ps *Parser) Spec(header string) (Spec, bool) {
	s, ok := ps.specs[header]
	return s, ok
}

// Reachable reports whether the parser can ever mark the header valid.
func (ps *Parser) Reachable(header string) bool {
	_, ok := ps.specs[header]
	return ok
}

// Initial returns the header's validity when the pipeline starts:
// ethernet is always valid, parser-known headers depend on the packet,
// and unknown headers are invalid until an explicit setValid.
func (ps *Parser) Initial(header string) Validity {
	s, ok := ps.specs[header]
	if !ok {
		return Invalid
	}
	if s.Role == RoleEthernet {
		return Valid
	}
	return Top
}

// Discriminators returns the fields whose values determine whether the
// parser marks the header valid: the EtherType chain for L2.5/L3
// headers, the IP protocol / next-header fields for L4 headers, and
// gre.protocol for the inner header. A table that matches on any of
// these alongside a header field is considered validity-coupled.
func (ps *Parser) Discriminators(header string) []*ir.Field {
	s, ok := ps.specs[header]
	if !ok {
		return nil
	}
	var names []string
	switch s.Role {
	case RoleVlan:
		names = []string{"ethernet.ether_type"}
	case RoleL3:
		names = []string{"ethernet.ether_type", "vlan.ether_type"}
	case RoleL4:
		names = []string{"ipv4.protocol", "ipv6.next_header"}
	case RoleInner:
		names = []string{"gre.protocol"}
	}
	var out []*ir.Field
	for _, n := range names {
		if f, ok := ps.prog.HeaderField(n); ok {
			out = append(out, f)
		}
	}
	return out
}
