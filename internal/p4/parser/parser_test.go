package parser

import (
	"strings"
	"testing"

	"switchv/internal/p4/ast"
	"switchv/internal/p4/token"
)

const tiny = `
typedef bit<32> addr_t;
const bit<10> TBL_SIZE = 64;

header ipv4_t {
  bit<8> ttl;
  addr_t dst_addr;
}

struct headers_t { ipv4_t ipv4; }
struct meta_t { bit<10> vrf_id; }

@name("tiny")
control ingress(inout headers_t headers, inout meta_t meta,
                inout standard_metadata_t standard_metadata) {
  action drop() { mark_to_drop(); }
  action set_port(bit<16> port) { set_egress_port(port); }

  @entry_restriction("vrf_id != 0")
  table route {
    key = {
      meta.vrf_id : exact @name("vrf_id");
      headers.ipv4.dst_addr : lpm;
    }
    actions = { drop; set_port; }
    const default_action = drop;
    size = TBL_SIZE;
  }

  apply {
    if (headers.ipv4.isValid() && headers.ipv4.ttl > 1) {
      route.apply();
    } else {
      mark_to_drop();
    }
  }
}
`

func TestParseTiny(t *testing.T) {
	prog, err := Parse(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "tiny" {
		t.Errorf("Name = %q", prog.Name)
	}
	if len(prog.Typedefs) != 1 || prog.Typedefs[0].Name != "addr_t" || prog.Typedefs[0].Type.Width != 32 {
		t.Errorf("typedefs = %+v", prog.Typedefs)
	}
	if len(prog.Consts) != 1 || prog.Consts[0].Value != 64 {
		t.Errorf("consts = %+v", prog.Consts)
	}
	if len(prog.Headers) != 1 || len(prog.Headers[0].Fields) != 2 {
		t.Fatalf("headers = %+v", prog.Headers)
	}
	if len(prog.Structs) != 2 {
		t.Fatalf("structs = %+v", prog.Structs)
	}
	ctrl := prog.Controls[0]
	if len(ctrl.Params) != 3 || ctrl.Params[0].Direction != "inout" {
		t.Errorf("params = %+v", ctrl.Params)
	}
	if len(ctrl.Actions) != 2 {
		t.Fatalf("actions = %d", len(ctrl.Actions))
	}
	if len(ctrl.Tables) != 1 {
		t.Fatalf("tables = %d", len(ctrl.Tables))
	}
	tbl := ctrl.Tables[0]
	if len(tbl.Keys) != 2 || tbl.Keys[0].MatchKind != "exact" || tbl.Keys[1].MatchKind != "lpm" {
		t.Errorf("keys = %+v", tbl.Keys)
	}
	if _, ok := tbl.Keys[0].Annos.Find("name"); !ok {
		t.Error("missing @name on key 0")
	}
	if tbl.DefaultAction != "drop" || !tbl.ConstDefault {
		t.Errorf("default = %q const=%v", tbl.DefaultAction, tbl.ConstDefault)
	}
	if r, ok := tbl.Annos.Find("entry_restriction"); !ok {
		t.Error("missing entry_restriction")
	} else if s, _ := r.StringArg(); s != "vrf_id != 0" {
		t.Errorf("restriction = %q", s)
	}
	// Apply block: if with else.
	ifst, ok := ctrl.Apply.Stmts[0].(*ast.IfStmt)
	if !ok {
		t.Fatalf("apply[0] = %T", ctrl.Apply.Stmts[0])
	}
	cond, ok := ifst.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.AndAnd {
		t.Fatalf("cond = %+v", ifst.Cond)
	}
	if _, ok := cond.X.(*ast.CallExpr); !ok {
		t.Errorf("cond.X = %T, want isValid call", cond.X)
	}
	if ifst.Else == nil {
		t.Error("missing else")
	}
}

func TestParseExprPrecedence(t *testing.T) {
	src := `
struct m_t { bit<8> a; bit<8> b; }
control c(inout m_t m) {
  apply {
    if (m.a == 1 || m.a == 2 && m.b != 3) { mark_to_drop(); }
  }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ifst := prog.Controls[0].Apply.Stmts[0].(*ast.IfStmt)
	or, ok := ifst.Cond.(*ast.BinaryExpr)
	if !ok || or.Op != token.OrOr {
		t.Fatalf("top op = %+v, want ||", ifst.Cond)
	}
	and, ok := or.Y.(*ast.BinaryExpr)
	if !ok || and.Op != token.AndAnd {
		t.Fatalf("rhs = %+v, want &&", or.Y)
	}
}

func TestParseTernaryAndUnary(t *testing.T) {
	src := `
struct m_t { bit<8> a; bit<8> b; }
control c(inout m_t m) {
  apply {
    m.a = (m.b > 4 ? 1 : 0) + ~m.b;
  }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	asg := prog.Controls[0].Apply.Stmts[0].(*ast.AssignStmt)
	add, ok := asg.RHS.(*ast.BinaryExpr)
	if !ok || add.Op != token.Plus {
		t.Fatalf("RHS = %+v", asg.RHS)
	}
	if _, ok := add.X.(*ast.TernaryExpr); !ok {
		t.Errorf("X = %T, want ternary", add.X)
	}
	un, ok := add.Y.(*ast.UnaryExpr)
	if !ok || un.Op != token.Tilde {
		t.Errorf("Y = %+v, want ~", add.Y)
	}
}

func TestParseImplementationProperty(t *testing.T) {
	src := `
struct m_t { bit<8> a; }
control c(inout m_t m) {
  action nop() { no_op(); }
  table sel {
    key = { m.a : exact; }
    actions = { nop; }
    implementation = action_selector(hash, 128, 10);
    size = 16;
  }
  apply { sel.apply(); }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if impl := prog.Controls[0].Tables[0].Implementation; impl != "action_selector" {
		t.Errorf("implementation = %q", impl)
	}
}

func TestParseAnnotationNesting(t *testing.T) {
	src := `
struct m_t { bit<8> a; }
@anno(foo(bar, baz), qux)
control c(inout m_t m) {
  apply { }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := prog.Controls[0].Annos.Find("anno")
	if !ok {
		t.Fatal("missing @anno")
	}
	if len(a.Body) != 8 { // foo ( bar , baz ) , qux
		t.Errorf("body = %v", a.Body)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"control c { }",                                          // missing params
		"header h { bit<0> x; }",                                 // zero width
		"struct s { bit<8> x }",                                  // missing semicolon
		"control c(inout m_t m) { }",                             // no apply
		"table t { }",                                            // table at top level
		"control c(inout m_t m) { apply { x; } }",                // bare ident stmt
		"control c(inout m_t m) { apply { } apply { } }",         // duplicate apply
		"control c(inout m_t m) { apply { if (1 > ) { } } }",     // bad expr
		`control c(inout m_t m) { apply { m.a = 5 }`,             // missing semicolon
		"@unterminated(foo control c(inout m_t m) { apply { } }", // unterminated anno runs to EOF
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse succeeded for %q", src)
		}
	}
}

func TestParseDefaultActionArgs(t *testing.T) {
	src := `
struct m_t { bit<8> a; }
control c(inout m_t m) {
  action set_a(bit<8> v) { m.a = v; }
  table t {
    key = { m.a : exact; }
    actions = { set_a; }
    default_action = set_a(7);
  }
  apply { t.apply(); }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tbl := prog.Controls[0].Tables[0]
	if tbl.DefaultAction != "set_a" || tbl.ConstDefault {
		t.Errorf("default = %q const=%v", tbl.DefaultAction, tbl.ConstDefault)
	}
	if len(tbl.DefaultArgs) != 1 {
		t.Fatalf("args = %+v", tbl.DefaultArgs)
	}
	if v, ok := tbl.DefaultArgs[0].(*ast.IntExpr); !ok || v.Value != 7 {
		t.Errorf("arg = %+v", tbl.DefaultArgs[0])
	}
}

func TestParseKeywordPathSegments(t *testing.T) {
	// "apply" as a method name must parse; "apply" as a first segment must not.
	src := `
struct m_t { bit<8> a; }
control c(inout m_t m) {
  action nop() { no_op(); }
  table t { key = { m.a : exact; } actions = { nop; } }
  apply { t.apply(); }
}
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(strings.Replace(src, "t.apply();", "apply.t();", 1)); err == nil {
		t.Error("parsed apply.t()")
	}
}

// TestNestingLimit: a program nesting MaxNesting levels parses, one level
// more is a parse error, and so is input deep enough to overflow the Go
// stack of an unbounded recursive descent.
func TestNestingLimit(t *testing.T) {
	action := func(body string) string {
		return "control c() { action a() { " + body + " } apply { } }"
	}
	nestingErr := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "nesting deeper than")
	}
	for _, tc := range []struct {
		name string
		src  func(levels int) string
	}{
		// The action body is one level, each block inside it one more.
		{"blocks", func(n int) string {
			return action(strings.Repeat("{", n-1) + strings.Repeat("}", n-1))
		}},
		// The body and the right-hand side are two levels, each
		// parenthesis one more.
		{"parentheses", func(n int) string {
			return action("x = " + strings.Repeat("(", n-2) + "1" + strings.Repeat(")", n-2) + ";")
		}},
		// Likewise each unary operator.
		{"unary", func(n int) string {
			return action("x = " + strings.Repeat("~", n-2) + "1;")
		}},
	} {
		if _, err := Parse(tc.src(MaxNesting)); err != nil {
			t.Errorf("%s, %d levels: %v", tc.name, MaxNesting, err)
		}
		if _, err := Parse(tc.src(MaxNesting + 1)); !nestingErr(err) {
			t.Errorf("%s, %d levels: got %v, want a nesting error", tc.name, MaxNesting+1, err)
		}
	}
	// An if statement and its block are two levels each.
	ifs := strings.Repeat("if (true) { ", MaxNesting/2) + strings.Repeat("}", MaxNesting/2)
	if _, err := Parse(action(ifs)); !nestingErr(err) {
		t.Errorf("%d nested ifs: got %v, want a nesting error", MaxNesting/2, err)
	}
	deep := action("x = " + strings.Repeat("(", 1_000_000) + "1" + strings.Repeat(")", 1_000_000) + ";")
	if _, err := Parse(deep); !nestingErr(err) {
		t.Errorf("a million parentheses: got %v, want a nesting error", err)
	}
}
