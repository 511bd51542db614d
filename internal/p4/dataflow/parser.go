package dataflow

import (
	"strings"

	"switchv/internal/p4/ir"
)

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
	// RoleVlan: the optional 802.1Q tag, selected by the EtherType.
	RoleVlan
	// RoleL3: selected by the effective EtherType after VLAN untagging.
	RoleL3
	// RoleL4: selected by the IPv4 protocol or IPv6 next-header field.
	RoleL4
	// RoleInner: the GRE payload, selected by the GRE protocol field.
	RoleInner
)

// Selector is one parse transition into a header: the parser takes it
// when the discriminator Field, a field of an earlier header named under
// the headers struct, holds Value while that header is valid.
type Selector struct {
	Field string
	Value uint64
}

// Header returns the instance name of the header Field belongs to.
func (s Selector) Header() string {
	h, _, _ := strings.Cut(s.Field, ".")
	return h
}

// Restatement names a discriminator that a header repeats: while the
// header is valid, selectors on Field compare By instead.
type Restatement struct{ Field, By string }

// Spec describes what makes the parser mark one header valid: it is the
// one statement of the parser's selectors, which
// symbolic.assertParserAxioms encodes and the witness engine repairs by.
type Spec struct {
	Name string // instance name under the headers struct, e.g. "ipv4"
	Role Role
	// Select lists the transitions into the header; any one marks it
	// valid. The first is the one an untagged IPv4 packet takes.
	Select []Selector
	// Forbid: a program without this header rules its selectors out, as
	// the reference parser would meet a header the model has no fields
	// for (without ARP or an L4 header it leaves the payload unparsed).
	Forbid bool
	// Restates is set on a header that repeats an outer discriminator:
	// the VLAN tag carries the EtherType of the frame it tags.
	Restates *Restatement
}

// parserChain is the fixed knowledge the reference parser has about
// header instance names, in parse order, outermost first: the
// deterministic iteration order for consumers that encode, patch or
// recompute validity along the chain.
var parserChain = []Spec{
	{Name: "ethernet", Role: RoleEthernet},
	{Name: "vlan", Role: RoleVlan, Select: []Selector{{"ethernet.ether_type", 0x8100}}, Forbid: true,
		Restates: &Restatement{Field: "ethernet.ether_type", By: "vlan.ether_type"}},
	{Name: "ipv4", Role: RoleL3, Select: []Selector{{"ethernet.ether_type", 0x0800}}, Forbid: true},
	{Name: "ipv6", Role: RoleL3, Select: []Selector{{"ethernet.ether_type", 0x86DD}}, Forbid: true},
	{Name: "arp", Role: RoleL3, Select: []Selector{{"ethernet.ether_type", 0x0806}}},
	{Name: "tcp", Role: RoleL4, Select: []Selector{{"ipv4.protocol", 6}, {"ipv6.next_header", 6}}},
	{Name: "udp", Role: RoleL4, Select: []Selector{{"ipv4.protocol", 17}, {"ipv6.next_header", 17}}},
	{Name: "icmp", Role: RoleL4, Select: []Selector{{"ipv4.protocol", 1}, {"ipv6.next_header", 58}}},
	{Name: "gre", Role: RoleL4, Select: []Selector{{"ipv4.protocol", 47}}, Forbid: true},
	{Name: "inner_ipv4", Role: RoleInner, Select: []Selector{{"gre.protocol", 0x0800}}},
}

// Specs returns the parser's whole spec in parse order, including the
// headers a given program lacks (whose Forbid rules still apply). The
// caller must not modify it.
func Specs() []Spec { return parserChain }

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
// parser marks the header valid: the fields its selectors read, and the
// copies that earlier headers restate them in (vlan.ether_type for an
// L3 header). A table that matches on any of these alongside a header
// field is considered validity-coupled.
func (ps *Parser) Discriminators(header string) []*ir.Field {
	s, ok := ps.specs[header]
	if !ok {
		return nil
	}
	var out []*ir.Field
	add := func(name string) {
		if f, ok := ps.prog.HeaderField(name); ok {
			out = append(out, f)
		}
	}
	for _, sel := range s.Select {
		add(sel.Field)
		for _, o := range parserChain {
			if o.Name == s.Name {
				break
			}
			if o.Restates != nil && o.Restates.Field == sel.Field {
				add(o.Restates.By)
			}
		}
	}
	return out
}
