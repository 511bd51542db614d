package bmv2

import (
	"errors"
	"sync"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/value"
)

// Ref is a field resolved once per program: its ID in the field space
// and its width. ID is -1 when the program does not declare the field;
// writes through such a Ref are dropped and reads yield zero.
type Ref struct{ ID, Width int }

// Declared reports whether the program declares the field; for a
// validity field, whether it declares the header instance.
func (r Ref) Declared() bool { return r.ID >= 0 }

// Get reads the field's low 64 bits (zero when it is not declared).
func (r Ref) Get(fs []value.V) uint64 {
	if r.ID < 0 {
		return 0
	}
	return fs[r.ID].Uint64()
}

// IsSet reports whether the field is declared and nonzero: for a
// validity field, whether the header is valid.
func (r Ref) IsSet(fs []value.V) bool { return r.ID >= 0 && !fs[r.ID].IsZero() }

func (r Ref) set(fs []value.V, v uint64) {
	if r.ID >= 0 {
		fs[r.ID] = value.New(v, r.Width)
	}
}

func (r Ref) set128(fs []value.V, hi, lo uint64) {
	if r.ID >= 0 {
		fs[r.ID] = value.New128(hi, lo, r.Width)
	}
}

// IPv4Refs are the fields of an IPv4 header instance.
type IPv4Refs struct {
	Valid, DSCP, ECN, ID, TTL, Proto, Src, Dst Ref
}

// Layout is a program's fields as the simulators read them, resolved
// once per program (LayoutOf): the protocol fields the parse walk writes
// and the compiled engine's deparser reads, under their conventional
// instance names, and the pipeline's synthetic and standard-metadata
// fields both engines' runs read. The interpreter's deparser looks its
// fields up by name, so the differential tests also check these refs.
type Layout struct {
	Eth         struct{ Valid, Dst, Src, Type Ref }
	VLAN        struct{ Valid, Prio, DropElig, ID, Type Ref }
	ARP         struct{ Valid, Op, Sender, Target Ref }
	IPv4, Inner IPv4Refs // Inner is GRE's inner_ipv4
	IPv6        struct{ Valid, DSCP, ECN, Flow, Next, Hop, Src, Dst Ref }
	GRE         struct{ Valid, Proto Ref }
	TCP         struct{ Valid, Src, Dst, Flags Ref }
	UDP         struct{ Valid, Src, Dst Ref }
	ICMP        struct{ Valid, Type, Code Ref }

	Drop, Punt, Copy, Mirror, MirrorSession Ref
	Ingress, EgressSpec                     Ref
	EgressPort                              Ref

	// zero holds a zero value at each field's declared width: the field
	// space a run starts from.
	zero []value.V
}

var layouts sync.Map // *ir.Program -> *Layout

// LayoutOf returns the program's layout, resolving it on first use.
// Programs are immutable after compilation, so the cache is keyed on
// identity.
func LayoutOf(prog *ir.Program) *Layout {
	if l, ok := layouts.Load(prog); ok {
		return l.(*Layout)
	}
	l, _ := layouts.LoadOrStore(prog, newLayout(prog))
	return l.(*Layout)
}

func newLayout(prog *ir.Program) *Layout {
	ref := func(f *ir.Field, ok bool) Ref {
		if !ok {
			return Ref{-1, 0}
		}
		return Ref{f.ID, f.Width}
	}
	hdr := func(name string) Ref { return ref(prog.HeaderField(name)) }
	ip4 := func(instance string) IPv4Refs {
		return IPv4Refs{
			Valid: hdr(instance + ".$valid"),
			DSCP:  hdr(instance + ".dscp"),
			ECN:   hdr(instance + ".ecn"),
			ID:    hdr(instance + ".identification"),
			TTL:   hdr(instance + ".ttl"),
			Proto: hdr(instance + ".protocol"),
			Src:   hdr(instance + ".src_addr"),
			Dst:   hdr(instance + ".dst_addr"),
		}
	}
	l := &Layout{IPv4: ip4("ipv4"), Inner: ip4("inner_ipv4"), zero: make([]value.V, len(prog.Fields))}
	for i, f := range prog.Fields {
		l.zero[i] = value.Zero(f.Width)
	}
	l.Eth.Valid, l.Eth.Dst = hdr("ethernet.$valid"), hdr("ethernet.dst_addr")
	l.Eth.Src, l.Eth.Type = hdr("ethernet.src_addr"), hdr("ethernet.ether_type")
	l.VLAN.Valid, l.VLAN.Prio = hdr("vlan.$valid"), hdr("vlan.priority")
	l.VLAN.DropElig, l.VLAN.ID, l.VLAN.Type = hdr("vlan.drop_eligible"), hdr("vlan.vlan_id"), hdr("vlan.ether_type")
	l.ARP.Valid, l.ARP.Op = hdr("arp.$valid"), hdr("arp.operation")
	l.ARP.Sender, l.ARP.Target = hdr("arp.sender_ip"), hdr("arp.target_ip")
	l.IPv6.Valid, l.IPv6.DSCP, l.IPv6.ECN = hdr("ipv6.$valid"), hdr("ipv6.dscp"), hdr("ipv6.ecn")
	l.IPv6.Flow, l.IPv6.Next, l.IPv6.Hop = hdr("ipv6.flow_label"), hdr("ipv6.next_header"), hdr("ipv6.hop_limit")
	l.IPv6.Src, l.IPv6.Dst = hdr("ipv6.src_addr"), hdr("ipv6.dst_addr")
	l.GRE.Valid, l.GRE.Proto = hdr("gre.$valid"), hdr("gre.protocol")
	l.TCP.Valid, l.TCP.Src = hdr("tcp.$valid"), hdr("tcp.src_port")
	l.TCP.Dst, l.TCP.Flags = hdr("tcp.dst_port"), hdr("tcp.flags")
	l.UDP.Valid, l.UDP.Src, l.UDP.Dst = hdr("udp.$valid"), hdr("udp.src_port"), hdr("udp.dst_port")
	l.ICMP.Valid, l.ICMP.Type, l.ICMP.Code = hdr("icmp.$valid"), hdr("icmp.type"), hdr("icmp.code")

	field := func(name string) Ref { return ref(prog.FieldByName(name)) }
	l.Drop, l.Punt, l.Copy = field(ir.FieldDrop), field(ir.FieldPunt), field(ir.FieldCopy)
	l.Mirror, l.MirrorSession = field(ir.FieldMirror), field(ir.FieldMirrorSession)
	l.Ingress, l.EgressSpec = field(ir.FieldIngressPort), field(ir.FieldEgressSpec)
	l.EgressPort = field(ir.FieldEgressPort)
	return l
}

// Runnable reports why a simulator cannot run the program: it declares
// no standard metadata. (ir.Compile declares the synthetic fields in
// every program.)
func (l *Layout) Runnable() error {
	if !l.Ingress.Declared() || !l.EgressSpec.Declared() {
		return errors.New("program lacks standard metadata")
	}
	return nil
}

// Parse starts a run on fs, one value per program field: it sets every
// field to zero, decodes the packet with the one parse walk (see parse)
// and sets the ingress port. It returns the bytes the model leaves
// opaque.
func (l *Layout) Parse(fs []value.V, in Input) (payload []byte, err error) {
	copy(fs, l.zero)
	payload, err = l.parse(fs, in.Packet)
	if err == nil {
		l.Ingress.set(fs, uint64(in.Port))
	}
	return payload, err
}

// NextStage makes the chosen egress visible as egress_port, as it is
// between pipeline stages (simple_switch semantics).
func (l *Layout) NextStage(fs []value.V) {
	if l.EgressPort.Declared() {
		fs[l.EgressPort.ID] = fs[l.EgressSpec.ID].WithWidth(l.EgressPort.Width)
	}
}

// Carries reports whether a finished run's outcome carries a packet: it
// is punted, or not dropped. A pure drop needs no deparse.
func (l *Layout) Carries(fs []value.V) bool { return l.Punt.IsSet(fs) || !l.Drop.IsSet(fs) }

// Settle resolves a finished run's outcome from the pipeline fields:
// punt before drop before forward, the copy to the CPU, and a mirror
// copy of any packet not dropped. data is the deparsed packet, unused
// when the run dropped it.
func (l *Layout) Settle(fs []value.V, out *Outcome, data []byte) {
	out.CopyToCPU = l.Copy.IsSet(fs)
	switch {
	case l.Punt.IsSet(fs):
		out.Disposition, out.Packet = Punted, data
	case l.Drop.IsSet(fs):
		out.Disposition = Dropped
		return
	default:
		out.Disposition, out.Packet = Forwarded, data
		out.EgressPort = uint16(l.EgressSpec.Get(fs))
	}
	if l.Mirror.IsSet(fs) {
		out.Mirrors = append(out.Mirrors, MirrorCopy{Session: uint16(l.MirrorSession.Get(fs)), Packet: data})
	}
}
