package ir

import (
	"strings"
	"testing"

	"switchv/internal/p4/parser"
)

func compile(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func compileErr(t *testing.T, src string) error {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse error (want compile error): %v", err)
	}
	_, err = Compile(prog)
	if err == nil {
		t.Fatal("Compile succeeded, want error")
	}
	return err
}

const base = `
typedef bit<32> addr_t;
const bit<16> SZ = 100;

header ipv4_t { bit<8> ttl; addr_t dst_addr; }
struct headers_t { ipv4_t ipv4; }
struct meta_t { bit<10> vrf_id; }

control ingress(inout headers_t headers, inout meta_t meta,
                inout standard_metadata_t standard_metadata) {
  action drop() { mark_to_drop(); }
  action fwd(bit<16> port) { set_egress_port(port); }

  table route {
    key = {
      meta.vrf_id : exact;
      headers.ipv4.dst_addr : lpm @name("dst");
    }
    actions = { drop; fwd; }
    const default_action = drop;
    size = SZ;
  }

  apply {
    if (headers.ipv4.isValid()) {
      if (headers.ipv4.ttl <= 1) { punt_to_cpu(); } else { route.apply(); }
      headers.ipv4.ttl = headers.ipv4.ttl - 1;
    }
  }
}
`

func TestCompileBase(t *testing.T) {
	p := compile(t, base)
	route, ok := p.TableByName("route")
	if !ok {
		t.Fatal("missing table route")
	}
	if route.Size != 100 {
		t.Errorf("size = %d", route.Size)
	}
	if route.Keys[0].Name != "vrf_id" {
		t.Errorf("key 0 name = %q (default should be last path segment)", route.Keys[0].Name)
	}
	if route.Keys[1].Name != "dst" || route.Keys[1].Match != MatchLPM {
		t.Errorf("key 1 = %+v", route.Keys[1])
	}
	if route.DefaultAction.Name != "drop" {
		t.Errorf("default = %s", route.DefaultAction.Name)
	}

	// drop compiles to $drop := 1.
	drop, _ := p.ActionByName("drop")
	if len(drop.Body) != 1 {
		t.Fatalf("drop body = %+v", drop.Body)
	}
	asg := drop.Body[0].(*Assign)
	if asg.Dst.Name != FieldDrop || asg.Src.Op != OpConst || asg.Src.Value != 1 {
		t.Errorf("drop = %+v", asg)
	}

	// fwd compiles to egress_spec := port; $drop := 0.
	fwd, _ := p.ActionByName("fwd")
	if len(fwd.Body) != 2 {
		t.Fatalf("fwd body has %d stmts", len(fwd.Body))
	}
	if a := fwd.Body[0].(*Assign); a.Dst.Name != "standard_metadata.egress_spec" || a.Src.Op != OpParam {
		t.Errorf("fwd[0] = %+v", a)
	}
	if a := fwd.Body[1].(*Assign); a.Dst.Name != FieldDrop || a.Src.Value != 0 {
		t.Errorf("fwd[1] = %+v", a)
	}

	// Apply: if(valid) { if(ttl<=1) punt else apply; ttl-- }.
	ctrl := p.Controls[0]
	outer := ctrl.Body[0].(*If)
	if outer.Cond.Op != OpField || !outer.Cond.Field.IsValidity {
		t.Errorf("outer cond = %+v", outer.Cond)
	}
	inner := outer.Then[0].(*If)
	if inner.Cond.Op != OpLe || inner.Cond.Width != 1 {
		t.Errorf("inner cond = %+v", inner.Cond)
	}
	if a := inner.Then[0].(*Assign); a.Dst.Name != FieldPunt {
		t.Errorf("punt = %+v", a)
	}
	if ap := inner.Else[0].(*ApplyTable); ap.Table.Name != "route" {
		t.Errorf("apply = %+v", ap)
	}
	dec := outer.Then[1].(*Assign)
	if dec.Src.Op != OpSub || dec.Src.Args[1].Value != 1 || dec.Src.Args[1].Width != 8 {
		t.Errorf("ttl decrement = %+v", dec.Src)
	}
}

func TestCompileExitReturnSetValid(t *testing.T) {
	src := `
header h_t { bit<8> x; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; }
control c(inout headers_t headers, inout meta_t meta) {
  apply {
    headers.h.setValid();
    headers.h.x = 3;
    headers.h.setInvalid();
    return;
    exit;
  }
}
`
	p := compile(t, src)
	body := p.Controls[0].Body
	if a := body[0].(*Assign); !a.Dst.IsValidity || a.Src.Value != 1 {
		t.Errorf("setValid = %+v", a)
	}
	if a := body[2].(*Assign); !a.Dst.IsValidity || a.Src.Value != 0 {
		t.Errorf("setInvalid = %+v", a)
	}
	if _, ok := body[3].(*Return); !ok {
		t.Errorf("body[3] = %T", body[3])
	}
	if _, ok := body[4].(*Exit); !ok {
		t.Errorf("body[4] = %T", body[4])
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src string
		wantSub   string
	}{
		{"unknown field", `
struct m_t { bit<8> a; }
control c(inout m_t m) { apply { m.b = 1; } }`, "unknown field"},
		{"width mismatch", `
struct m_t { bit<8> a; bit<16> b; }
control c(inout m_t m) { apply { m.a = m.b; } }`, "width mismatch"},
		{"unknown action", `
struct m_t { bit<8> a; }
control c(inout m_t m) {
  table t { key = { m.a : exact; } actions = { ghost; } }
  apply { t.apply(); }
}`, "unknown action"},
		{"unknown table", `
struct m_t { bit<8> a; }
control c(inout m_t m) { apply { ghost.apply(); } }`, "unknown table"},
		{"bad refers_to", `
struct m_t { bit<8> a; }
control c(inout m_t m) {
  action nop() { no_op(); }
  table t {
    key = { m.a : exact @refers_to(missing, k); }
    actions = { nop; }
  }
  apply { t.apply(); }
}`, "unknown table"},
		{"refers_to unknown key", `
struct m_t { bit<8> a; bit<8> b; }
control c(inout m_t m) {
  action nop() { no_op(); }
  table target {
    key = { m.a : exact @name("k"); }
    actions = { nop; }
  }
  table src {
    key = { m.b : exact @refers_to(target, missing); }
    actions = { nop; }
  }
  apply { target.apply(); src.apply(); }
}`, "unknown key"},
		{"refers_to one argument", `
struct m_t { bit<8> a; }
control c(inout m_t m) {
  action nop() { no_op(); }
  table t {
    key = { m.a : exact @refers_to(t); }
    actions = { nop; }
  }
  apply { t.apply(); }
}`, "expects (table, field)"},
		{"refers_to three arguments", `
struct m_t { bit<8> a; }
control c(inout m_t m) {
  action nop() { no_op(); }
  table t {
    key = { m.a : exact @refers_to(t, k, extra); }
    actions = { nop; }
  }
  apply { t.apply(); }
}`, "expects (table, field)"},
		{"two lpm keys", `
struct m_t { bit<8> a; bit<8> b; }
control c(inout m_t m) {
  action nop() { no_op(); }
  table t {
    key = { m.a : lpm; m.b : lpm; }
    actions = { nop; }
  }
  apply { t.apply(); }
}`, "lpm"},
		{"literal too wide", `
struct m_t { bit<4> a; }
control c(inout m_t m) { apply { m.a = 99; } }`, "does not fit"},
		{"non-bool if", `
struct m_t { bit<8> a; }
control c(inout m_t m) { apply { if (m.a) { } } }`, "boolean"},
		{"apply in action", `
struct m_t { bit<8> a; }
control c(inout m_t m) {
  action nop() { no_op(); }
  table t { key = { m.a : exact; } actions = { nop; } }
  action bad() { t.apply(); }
  apply { t.apply(); }
}`, "apply blocks"},
		{"duplicate key name", `
struct m_t { bit<8> a; bit<8> b; }
control c(inout m_t m) {
  action nop() { no_op(); }
  table t {
    key = { m.a : exact @name("k"); m.b : exact @name("k"); }
    actions = { nop; }
  }
  apply { t.apply(); }
}`, "duplicate key name"},
		{"default action arity", `
struct m_t { bit<8> a; }
control c(inout m_t m) {
  action set_a(bit<8> v) { m.a = v; }
  table t {
    key = { m.a : exact; }
    actions = { set_a; }
    default_action = set_a;
  }
  apply { t.apply(); }
}`, "takes 1 args"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := compileErr(t, c.src)
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error = %v, want substring %q", err, c.wantSub)
			}
		})
	}
}

func TestValidityKeyNaming(t *testing.T) {
	src := `
header ip_t { bit<8> ttl; }
struct headers_t { ip_t ipv4; }
struct m_t { bit<8> a; }
control c(inout headers_t headers, inout m_t m) {
  action nop() { no_op(); }
  table t {
    key = { headers.ipv4.isValid() : optional; }
    actions = { nop; }
  }
  apply { t.apply(); }
}
`
	p := compile(t, src)
	tbl, _ := p.TableByName("t")
	if tbl.Keys[0].Name != "is_ipv4_valid" {
		t.Errorf("validity key name = %q", tbl.Keys[0].Name)
	}
	if tbl.Keys[0].Match != MatchOptional {
		t.Errorf("match = %v", tbl.Keys[0].Match)
	}
}

// TestHeaderFields: the headers prefix is the struct parameter holding
// the header instances, whatever it is named, and HeaderField looks a
// field up by its name under it.
func TestHeaderFields(t *testing.T) {
	p := compile(t, base)
	if got := p.HeadersPrefix(); got != "headers" {
		t.Fatalf("HeadersPrefix() = %q, want headers", got)
	}
	if f, ok := p.HeaderField("ipv4.ttl"); !ok || f.Name != "headers.ipv4.ttl" {
		t.Errorf("HeaderField(ipv4.ttl) = %v, %v", f, ok)
	}
	if f, ok := p.HeaderField("ipv4.$valid"); !ok || !f.IsValidity || f.Header != "headers.ipv4" {
		t.Errorf("HeaderField(ipv4.$valid) = %+v, %v", f, ok)
	}
	for _, name := range []string{"vrf_id", "meta.vrf_id", "headers.ipv4.ttl", "ipv6.$valid"} {
		if _, ok := p.HeaderField(name); ok {
			t.Errorf("HeaderField(%s) found a field", name)
		}
	}

	renamed := compile(t, strings.NewReplacer("headers_t headers", "headers_t hdr", "headers.", "hdr.").Replace(base))
	if got := renamed.HeadersPrefix(); got != "hdr" {
		t.Errorf("renamed parameter: HeadersPrefix() = %q, want hdr", got)
	}
	if f, ok := renamed.HeaderField("ipv4.dst_addr"); !ok || f.Name != "hdr.ipv4.dst_addr" {
		t.Errorf("renamed parameter: HeaderField(ipv4.dst_addr) = %v, %v", f, ok)
	}

	none := compile(t, `
struct m_t { bit<8> a; }
control c(inout m_t m) { apply { } }
`)
	if got := none.HeadersPrefix(); got != "" {
		t.Errorf("no headers: HeadersPrefix() = %q, want empty", got)
	}
	if _, ok := none.HeaderField("a"); ok {
		t.Error("no headers: HeaderField(a) found a field")
	}
}

func TestConstExprFolding(t *testing.T) {
	src := `
const bit<16> A = 10;
const bit<16> B = 4;
struct m_t { bit<8> a; }
control c(inout m_t m) {
  action nop() { no_op(); }
  table t {
    key = { m.a : exact; }
    actions = { nop; }
    size = A + B;
  }
  apply { t.apply(); }
}
`
	p := compile(t, src)
	tbl, _ := p.TableByName("t")
	if tbl.Size != 14 {
		t.Errorf("size = %d", tbl.Size)
	}
}

func TestMirrorPrimitive(t *testing.T) {
	src := `
struct m_t { bit<16> sess; }
control c(inout m_t m) {
  apply { mirror(m.sess); copy_to_cpu(); }
}
`
	p := compile(t, src)
	body := p.Controls[0].Body
	if a := body[0].(*Assign); a.Dst.Name != FieldMirror {
		t.Errorf("mirror[0] = %+v", a)
	}
	if a := body[1].(*Assign); a.Dst.Name != FieldMirrorSession || a.Src.Op != OpField {
		t.Errorf("mirror[1] = %+v", a)
	}
	if a := body[2].(*Assign); a.Dst.Name != FieldCopy {
		t.Errorf("copy = %+v", a)
	}
}

func TestTableAndActionLookups(t *testing.T) {
	p := compile(t, base)
	if _, ok := p.TableByName("nope"); ok {
		t.Error("found nonexistent table")
	}
	if _, ok := p.ActionByName("nope"); ok {
		t.Error("found nonexistent action")
	}
	route, _ := p.TableByName("route")
	if _, ok := route.KeyByName("dst"); !ok {
		t.Error("KeyByName(dst) failed")
	}
	if _, ok := route.KeyByName("nope"); ok {
		t.Error("KeyByName(nope) succeeded")
	}
	drop, _ := p.ActionByName("drop")
	if !route.HasAction(drop) {
		t.Error("HasAction(drop) = false")
	}
	if route.HasAction(p.NoAction) {
		t.Error("HasAction(no_action) = true")
	}
	names := p.SortedFieldNames()
	if len(names) == 0 || names[0] > names[len(names)-1] {
		t.Error("SortedFieldNames not sorted")
	}
}
