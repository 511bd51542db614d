package dataflow

import (
	"slices"
	"testing"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/parser"
	"switchv/internal/p4/value"
	"switchv/models"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ir.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func field(t *testing.T, p *ir.Program, name string) *ir.Field {
	t.Helper()
	f, ok := p.FieldByName(name)
	if !ok {
		t.Fatalf("no field %q", name)
	}
	return f
}

// TestConeTransitivity: a table keyed on metadata written from a header
// field by an upstream table pulls the header bits — and the upstream
// table — into its cone.
func TestConeTransitivity(t *testing.T) {
	prog := compile(t, `
header ethernet_t { bit<48> dst_addr; bit<48> src_addr; bit<16> ether_type; }
struct headers_t { ethernet_t ethernet; }
struct m_t { bit<10> vrf; }
control c(inout headers_t headers, inout m_t m) {
  action setv(bit<10> v) { m.vrf = v; }
  action nop() { no_op(); }
  table classify { key = { headers.ethernet.src_addr : ternary; } actions = { setv; } }
  table route { key = { m.vrf : exact; } actions = { nop; } }
  apply { classify.apply(); route.apply(); }
}`)
	a := Analyze(prog)

	cone := a.Cone("route")
	if cone == nil {
		t.Fatal("no cone for route")
	}
	src := field(t, prog, "headers.ethernet.src_addr")
	if m, ok := cone.Fields[src.ID]; !ok || !m.Equal(value.Ones(48)) {
		t.Errorf("route cone lacks full src_addr mask: %v", cone.Fields[src.ID])
	}
	if !cone.Tables["classify"] || !cone.Tables["route"] {
		t.Errorf("route cone tables = %v, want classify+route", cone.Tables)
	}
	// classify's own cone must NOT contain route (no backward edge) nor
	// the vrf metadata.
	vrf := field(t, prog, "m.vrf")
	cc := a.Cone("classify")
	if cc.Tables["route"] {
		t.Error("classify cone includes downstream route")
	}
	if _, ok := cc.Fields[vrf.ID]; ok {
		t.Error("classify cone includes unrelated m.vrf")
	}
	dst := field(t, prog, "headers.ethernet.dst_addr")
	if _, ok := cc.Fields[dst.ID]; ok {
		t.Error("classify cone includes unread dst_addr")
	}
}

// TestBitGranularMask: `(x & 0xF0) == c` guards narrow the cone to the
// masked bits, and arithmetic widens to the carry chain.
func TestBitGranularMask(t *testing.T) {
	prog := compile(t, `
struct m_t { bit<8> x; bit<8> y; }
control c(inout m_t m) {
  action nop() { no_op(); }
  table t { key = { m.y : exact; } actions = { nop; } }
  apply {
    if ((m.x & 0xF0) == 0x40) { t.apply(); }
  }
}`)
	a := Analyze(prog)
	x := field(t, prog, "m.x")
	cone := a.Cone("t")
	if m, ok := cone.Fields[x.ID]; !ok || m.Uint64() != 0xF0 {
		t.Errorf("cone mask for m.x = %v, want 0xF0", cone.Fields[x.ID])
	}
}

// TestValidityLattice: isValid guards refine the lattice per branch,
// setValid/setInvalid update it, and joins lose agreement.
func TestValidityLattice(t *testing.T) {
	prog := compile(t, `
header ipv4_t { bit<8> ttl; }
struct headers_t { ipv4_t ipv4; }
struct m_t { bit<8> a; }
control c(inout headers_t headers, inout m_t m) {
  action nop() { no_op(); }
  table t1 { key = { m.a : exact; } actions = { nop; } }
  table t2 { key = { headers.ipv4.ttl : ternary; } actions = { nop; } }
  apply {
    if (headers.ipv4.isValid()) {
      t2.apply();
    }
    t1.apply();
  }
}`)
	a := Analyze(prog)
	if v := a.ValidityAtApply("t2", "headers.ipv4"); v != Valid {
		t.Errorf("t2 sees ipv4 %v, want valid", v)
	}
	if v := a.ValidityAtApply("t1", "headers.ipv4"); v != Top {
		t.Errorf("t1 sees ipv4 %v, want ⊤ (join of branches)", v)
	}
}

// TestParserModel: the chain mirrors the symbolic executor's axioms.
func TestParserModel(t *testing.T) {
	prog, err := models.Load("wan")
	if err != nil {
		t.Fatal(err)
	}
	ps := ParserOf(prog)
	if v := ps.Initial("headers.ethernet"); v != Valid {
		t.Errorf("ethernet initial = %v", v)
	}
	if v := ps.Initial("headers.ipv4"); v != Top {
		t.Errorf("ipv4 initial = %v", v)
	}
	if !ps.Reachable("headers.inner_ipv4") {
		t.Error("inner_ipv4 not reachable")
	}
	spec, ok := ps.Spec("headers.icmp")
	if want := []Selector{{"ipv4.protocol", 1}, {"ipv6.next_header", 58}}; !ok || !slices.Equal(spec.Select, want) {
		t.Errorf("icmp spec = %+v", spec)
	}
	if spec, _ := ps.Spec("headers.gre"); len(spec.Select) != 1 || spec.Select[0].Header() != "ipv4" {
		t.Errorf("gre spec allows IPv6: %+v", spec)
	}
	if spec, _ := ps.Spec("headers.inner_ipv4"); !slices.Equal(spec.Select, []Selector{{"gre.protocol", 0x0800}}) {
		t.Errorf("inner_ipv4 spec = %+v", spec)
	}
	names := func(fs []*ir.Field) (out []string) {
		for _, f := range fs {
			out = append(out, f.Name)
		}
		return out
	}
	for header, want := range map[string][]string{
		"headers.vlan":       {"headers.ethernet.ether_type"},
		"headers.ipv4":       {"headers.ethernet.ether_type", "headers.vlan.ether_type"},
		"headers.tcp":        {"headers.ipv4.protocol", "headers.ipv6.next_header"},
		"headers.gre":        {"headers.ipv4.protocol"},
		"headers.inner_ipv4": {"headers.gre.protocol"},
	} {
		if got := names(ps.Discriminators(header)); !slices.Equal(got, want) {
			t.Errorf("%s discriminators = %v, want %v", header, got, want)
		}
	}
}

// TestConesCoverEmbeddedModels: every applied table of both embedded
// models gets a cone strictly smaller than the whole field space — the
// slicing payoff — except tables behind the full nexthop chain.
func TestConesCoverEmbeddedModels(t *testing.T) {
	for _, name := range models.Names() {
		prog, err := models.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		a := Cached(prog)
		if a != Cached(prog) {
			t.Fatal("Cached not memoized")
		}
		total := a.TotalInputBits()
		for _, tbl := range prog.Tables {
			cone := a.Cone(tbl.Name)
			if cone == nil {
				t.Errorf("%s: table %s has no cone", name, tbl.Name)
				continue
			}
			if got := cone.Fields.Bits(); got == 0 || got > total {
				t.Errorf("%s/%s: cone bits = %d (total %d)", name, tbl.Name, got, total)
			}
			if !cone.Tables[tbl.Name] {
				t.Errorf("%s/%s: cone omits the table itself", name, tbl.Name)
			}
		}
		// acl_pre_ingress matches only raw packet fields: its cone must
		// stay well under half the field space.
		if cone := a.Cone("acl_pre_ingress_table"); cone != nil {
			if got := cone.Fields.Bits(); got*2 > total {
				t.Errorf("%s: acl_pre_ingress cone %d bits of %d — no slicing payoff", name, got, total)
			}
			if len(cone.Tables) != 1 {
				t.Errorf("%s: acl_pre_ingress cone tables = %v, want itself only", name, cone.Tables)
			}
		}
	}
}

// TestKilledWrites: straight-line overwrites are killed; reads and
// branches protect earlier writes.
func TestKilledWrites(t *testing.T) {
	prog := compile(t, `
struct m_t { bit<8> a; bit<8> b; }
control c(inout m_t m) {
  action nop() { no_op(); }
  table t { key = { m.b : exact; } actions = { nop; } }
  apply {
    m.a = 1;
    m.a = 2;      // kills the first write
    m.b = m.a;    // reads m.a: protects write #2
    m.a = 3;      // fine
    if (m.b == 0) { m.a = 4; } // branch clears tracking
    m.a = 5;      // fine (write #4 was in another block)
    t.apply();
  }
}`)
	a := Analyze(prog)
	var killed []int
	for _, d := range a.Defs {
		if d.Killed {
			killed = append(killed, d.Ord)
		}
	}
	if len(killed) != 1 {
		t.Fatalf("killed writes = %v, want exactly one", killed)
	}
	first := a.Defs[0]
	if !first.Killed || first.Field.Name != "m.a" {
		t.Errorf("first def = %+v, want killed m.a", first)
	}
}
