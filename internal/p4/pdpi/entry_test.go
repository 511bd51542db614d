package pdpi

import (
	"reflect"
	"strings"
	"testing"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/parser"
	"switchv/internal/p4/value"
	"switchv/models"
)

func ipv4Entry(t *testing.T, vrf uint64, prefix uint64, plen int) *Entry {
	t.Helper()
	p := models.Middleblock()
	tbl, _ := p.TableByName("ipv4_table")
	act, _ := p.ActionByName("set_nexthop_id")
	return &Entry{
		Table: tbl,
		Matches: []Match{
			{Key: "vrf_id", Kind: ir.MatchExact, Value: value.New(vrf, 10)},
			{Key: "ipv4_dst", Kind: ir.MatchLPM, Value: value.New(prefix, 32), PrefixLen: plen},
		},
		Action: &ActionInvocation{Action: act, Args: []value.V{value.New(1, 10)}},
	}
}

func TestValidateOK(t *testing.T) {
	e := ipv4Entry(t, 1, 0x0a000000, 8)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	p := models.Middleblock()
	aclTbl, _ := p.TableByName("acl_ingress_table")
	wcmpTbl, _ := p.TableByName("wcmp_group_table")
	setNexthop, _ := p.ActionByName("set_nexthop_id")
	aclDrop, _ := p.ActionByName("acl_drop")

	cases := []struct {
		name    string
		mutate  func(*Entry)
		wantSub string
	}{
		{"unknown key", func(e *Entry) { e.Matches[0].Key = "bogus" }, "no key"},
		{"duplicate key", func(e *Entry) { e.Matches = append(e.Matches, e.Matches[0]) }, "duplicate"},
		{"wrong kind", func(e *Entry) { e.Matches[0].Kind = ir.MatchLPM }, "is exact"},
		{"wrong width", func(e *Entry) { e.Matches[0].Value = value.New(1, 8) }, "width"},
		{"prefix out of range", func(e *Entry) { e.Matches[1].PrefixLen = 40 }, "prefix length"},
		{"bits below prefix", func(e *Entry) {
			e.Matches[1].Value = value.New(0x0a000001, 32)
			e.Matches[1].PrefixLen = 8
		}, "below the prefix"},
		{"missing mandatory", func(e *Entry) { e.Matches = e.Matches[:1] }, "mandatory"},
		{"priority on exact table", func(e *Entry) { e.Priority = 5 }, "does not use priorities"},
		{"bad action", func(e *Entry) { e.Action.Action = aclDrop }, "not permitted"},
		{"arg count", func(e *Entry) { e.Action.Args = nil }, "takes 1 args"},
		{"arg width", func(e *Entry) { e.Action.Args = []value.V{value.New(1, 8)} }, "width"},
		{"no action", func(e *Entry) { e.Action = nil }, "no action"},
		{"action set on plain table", func(e *Entry) {
			e.ActionSet = []WeightedAction{{ActionInvocation: *e.Action, Weight: 1}}
			e.Action = nil
		}, "not a selector"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := ipv4Entry(t, 1, 0x0a000000, 8)
			c.mutate(e)
			err := e.Validate()
			if err == nil {
				t.Fatal("Validate succeeded")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error = %v, want substring %q", err, c.wantSub)
			}
		})
	}

	// Ternary-specific checks.
	tern := &Entry{
		Table: aclTbl,
		Matches: []Match{
			{Key: "ttl", Kind: ir.MatchTernary, Value: value.New(0, 8), Mask: value.Zero(8)},
		},
		Priority: 1,
		Action:   &ActionInvocation{Action: aclDrop},
	}
	if err := tern.Validate(); err == nil || !strings.Contains(err.Error(), "zero mask") {
		t.Errorf("zero mask: %v", err)
	}
	tern.Matches[0].Mask = value.New(0x0f, 8)
	tern.Matches[0].Value = value.New(0xf0, 8)
	if err := tern.Validate(); err == nil || !strings.Contains(err.Error(), "outside the mask") {
		t.Errorf("value outside mask: %v", err)
	}
	tern.Matches[0].Value = value.New(0x0a, 8)
	if err := tern.Validate(); err != nil {
		t.Errorf("canonical ternary rejected: %v", err)
	}
	tern.Priority = 0
	if err := tern.Validate(); err == nil || !strings.Contains(err.Error(), "priority") {
		t.Errorf("zero priority: %v", err)
	}

	// Selector table checks.
	sel := &Entry{
		Table:   wcmpTbl,
		Matches: []Match{{Key: "wcmp_group_id", Kind: ir.MatchExact, Value: value.New(1, 10)}},
		ActionSet: []WeightedAction{
			{ActionInvocation: ActionInvocation{Action: setNexthop, Args: []value.V{value.New(1, 10)}}, Weight: 2},
			{ActionInvocation: ActionInvocation{Action: setNexthop, Args: []value.V{value.New(2, 10)}}, Weight: 1},
		},
	}
	if err := sel.Validate(); err != nil {
		t.Errorf("valid selector entry rejected: %v", err)
	}
	sel.ActionSet[0].Weight = 0
	if err := sel.Validate(); err == nil || !strings.Contains(err.Error(), "positive") {
		t.Errorf("zero weight: %v", err)
	}
	sel.ActionSet = nil
	if err := sel.Validate(); err == nil || !strings.Contains(err.Error(), "one-shot") {
		t.Errorf("missing action set: %v", err)
	}
	if (&Entry{}).Validate() == nil {
		t.Error("entry with no table validated")
	}
}

func TestNeedsPriority(t *testing.T) {
	p := models.Middleblock()
	ipv4, _ := p.TableByName("ipv4_table")
	acl, _ := p.TableByName("acl_ingress_table")
	if NeedsPriority(ipv4) {
		t.Error("ipv4_table needs priority")
	}
	if !NeedsPriority(acl) {
		t.Error("acl_ingress_table does not need priority")
	}
}

func TestKeyAndString(t *testing.T) {
	a := ipv4Entry(t, 1, 0x0a000000, 8)
	b := ipv4Entry(t, 1, 0x0a000000, 8)
	c := ipv4Entry(t, 2, 0x0a000000, 8)
	if a.Key() != b.Key() {
		t.Error("equal matches, different keys")
	}
	if a.Key() == c.Key() {
		t.Error("different matches, same key")
	}
	// Same match, different action: still the same Key (collision).
	b.Action.Args[0] = value.New(9, 10)
	if a.Key() != b.Key() {
		t.Error("action changed the match key")
	}
	s := a.String()
	for _, want := range []string{"ipv4_table", "set_nexthop_id", "=>"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if a.Equal(b) || !a.Equal(a.Clone()) {
		t.Error("Equal ignores the action's args")
	}

	// Two groups whose only member points at different nexthops: the
	// same Key, but String, ActionString and Equal tell them apart.
	p := models.Middleblock()
	wcmpTbl, _ := p.TableByName("wcmp_group_table")
	setNexthop, _ := p.ActionByName("set_nexthop_id")
	group := func(nh uint64) *Entry {
		return &Entry{
			Table:   wcmpTbl,
			Matches: []Match{{Key: "wcmp_group_id", Kind: ir.MatchExact, Value: value.New(1, 10)}},
			ActionSet: []WeightedAction{
				{ActionInvocation: ActionInvocation{Action: setNexthop, Args: []value.V{value.New(nh, 10)}}, Weight: 1},
			},
		}
	}
	g1, g2 := group(0x4d), group(0x54)
	if g1.Key() != g2.Key() {
		t.Error("member args changed the match key")
	}
	if g1.String() == g2.String() || g1.ActionString() == g2.ActionString() || g1.Equal(g2) {
		t.Errorf("member args not rendered or compared: %s vs %s", g1, g2)
	}
	if want := "set_nexthop_id 10w0x4d*1"; !strings.Contains(g1.String(), want) {
		t.Errorf("String() = %q missing %q", g1, want)
	}
}

func TestMatchLookup(t *testing.T) {
	e := ipv4Entry(t, 1, 0, 0)
	if _, ok := e.Match("vrf_id"); !ok {
		t.Error("vrf_id not found")
	}
	if _, ok := e.Match("bogus"); ok {
		t.Error("bogus found")
	}
}

func TestClone(t *testing.T) {
	e := ipv4Entry(t, 1, 0x0a000000, 8)
	cp := e.Clone()
	cp.Matches[0].Value = value.New(7, 10)
	cp.Action.Args[0] = value.New(7, 10)
	if e.Matches[0].Value.Uint64() != 1 || e.Action.Args[0].Uint64() != 1 {
		t.Error("Clone aliases the original")
	}

	p := models.Middleblock()
	wcmpTbl, _ := p.TableByName("wcmp_group_table")
	setNexthop, _ := p.ActionByName("set_nexthop_id")
	sel := &Entry{
		Table:   wcmpTbl,
		Matches: []Match{{Key: "wcmp_group_id", Kind: ir.MatchExact, Value: value.New(1, 10)}},
		ActionSet: []WeightedAction{
			{ActionInvocation: ActionInvocation{Action: setNexthop, Args: []value.V{value.New(1, 10)}}, Weight: 2},
		},
	}
	cp2 := sel.Clone()
	cp2.ActionSet[0].Args[0] = value.New(9, 10)
	if sel.ActionSet[0].Args[0].Uint64() != 1 {
		t.Error("Clone aliases the action set")
	}
}

// refModel has a selector table whose key and action both carry
// @refers_to values, and a plain table with the same action.
const refModel = `
struct meta_t { bit<8> a; bit<8> g; }
control c(inout meta_t m) {
  action set_a(bit<8> a) { m.a = a; }
  action pick(@refers_to(target, a) bit<8> x, bit<8> plain, @refers_to(target, a) bit<8> y) { m.g = x; }
  table target { key = { m.a : exact @name("a"); } actions = { set_a; } size = 8; }
  table sel {
    key = { m.a : exact @name("a"); m.g : exact @refers_to(target, a) @name("g"); }
    actions = { pick; }
    implementation = action_selector;
    size = 8;
  }
  table direct {
    key = { m.g : exact @refers_to(target, a) @name("g"); }
    actions = { pick; }
    size = 8;
  }
  apply { target.apply(); sel.apply(); direct.apply(); }
}
`

// TestReferences pins the enumeration order of an entry's @refers_to
// values (key matches, then the action, then each action-set member)
// and that it stops as soon as yield returns false.
func TestReferences(t *testing.T) {
	ast, err := parser.Parse(refModel)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Compile(ast)
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := prog.TableByName("sel")
	direct, _ := prog.TableByName("direct")
	pick, _ := prog.ActionByName("pick")
	v := func(x uint64) value.V { return value.New(x, 8) }
	ref := func(x uint64) Reference { return Reference{Table: "target", Field: "a", Value: v(x)} }
	collect := func(e *Entry, stop int) []Reference {
		var got []Reference
		e.References(func(r Reference) bool {
			got = append(got, r)
			return len(got) != stop
		})
		return got
	}

	selector := &Entry{
		Table: sel,
		Matches: []Match{
			{Key: "a", Kind: ir.MatchExact, Value: v(9)},
			{Key: "g", Kind: ir.MatchExact, Value: v(1)},
		},
		ActionSet: []WeightedAction{
			{ActionInvocation{pick, []value.V{v(2), v(7), v(3)}}, 1},
			{ActionInvocation{pick, []value.V{v(4), v(8), v(5)}}, 2},
		},
	}
	if err := selector.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []Reference{ref(1), ref(2), ref(3), ref(4), ref(5)}
	if got := collect(selector, -1); !reflect.DeepEqual(got, want) {
		t.Fatalf("selector references = %v, want %v", got, want)
	}
	for stop := 1; stop <= len(want); stop++ {
		if got := collect(selector, stop); !reflect.DeepEqual(got, want[:stop]) {
			t.Errorf("stopping after %d: got %v", stop, got)
		}
	}

	plain := &Entry{
		Table:   direct,
		Matches: []Match{{Key: "g", Kind: ir.MatchExact, Value: v(6)}},
		Action:  &ActionInvocation{pick, []value.V{v(2), v(7), v(3)}},
	}
	if got, want := collect(plain, -1), []Reference{ref(6), ref(2), ref(3)}; !reflect.DeepEqual(got, want) {
		t.Errorf("plain references = %v, want %v", got, want)
	}
}
