package pdpi

import (
	"testing"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/value"
)

// testTable builds a table over 8-bit keys of the given match kinds, named
// k0, k1, ...
func testTable(name string, kinds ...ir.MatchKind) *ir.Table {
	t := &ir.Table{Name: name}
	for i, k := range kinds {
		t.Keys = append(t.Keys, ir.KeyField{Index: i + 1, Name: "k" + string(rune('0'+i)),
			Field: &ir.Field{ID: i, Name: "f" + string(rune('0'+i)), Width: 8}, Match: k})
	}
	return t
}

// TestLower pins the one match lowering: exact and optional compare the
// whole field, an LPM value is masked to its prefix, and a ternary value
// with bits outside its mask (or a match on no key) matches nothing.
func TestLower(t *testing.T) {
	tbl := testTable("t", ir.MatchExact, ir.MatchOptional, ir.MatchLPM, ir.MatchTernary)
	v := func(x uint64) value.V { return value.New(x, 8) }
	for _, c := range []struct {
		name string
		m    Match
		want Cond
		ok   bool
	}{
		{"exact", Match{Key: "k0", Kind: ir.MatchExact, Value: v(0x12)}, Cond{Key: 0, Exact: true, Mask: v(0xff), Want: v(0x12)}, true},
		{"optional", Match{Key: "k1", Kind: ir.MatchOptional, Value: v(0x34)}, Cond{Key: 1, Exact: true, Mask: v(0xff), Want: v(0x34)}, true},
		{"lpm masked to its prefix", Match{Key: "k2", Kind: ir.MatchLPM, Value: v(0xab), PrefixLen: 4}, Cond{Key: 2, Mask: v(0xf0), Want: v(0xa0)}, true},
		{"lpm full length stays masked", Match{Key: "k2", Kind: ir.MatchLPM, Value: v(0xab), PrefixLen: 8}, Cond{Key: 2, Mask: v(0xff), Want: v(0xab)}, true},
		{"ternary", Match{Key: "k3", Kind: ir.MatchTernary, Value: v(0x06), Mask: v(0x0f)}, Cond{Key: 3, Mask: v(0x0f), Want: v(0x06)}, true},
		{"ternary outside its mask", Match{Key: "k3", Kind: ir.MatchTernary, Value: v(0x16), Mask: v(0x0f)}, Cond{}, false},
		{"unknown key", Match{Key: "nope", Kind: ir.MatchExact, Value: v(1)}, Cond{}, false},
	} {
		got, ok := Lower(tbl, &c.m)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("%s: Lower = %+v, %v; want %+v, %v", c.name, got, ok, c.want, c.ok)
		}
	}
}

// TestOrdered pins the one precedence order: priority tables highest
// first with ties in insertion order, LPM tables by the last LPM key's
// prefix length with entries omitting it last, exact tables in
// insertion order.
func TestOrdered(t *testing.T) {
	v := func(x uint64) value.V { return value.New(x, 8) }
	insert := func(s *Store, es ...*Entry) {
		for _, e := range es {
			if err := s.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
	}

	acl := testTable("acl", ir.MatchTernary, ir.MatchExact)
	pe := func(x uint64, prio int32) *Entry {
		return &Entry{Table: acl, Priority: prio, Matches: []Match{{Key: "k1", Kind: ir.MatchExact, Value: v(x)}}}
	}
	a, b, c, d := pe(1, 10), pe(2, 20), pe(3, 10), pe(4, 20)
	s := NewStore()
	insert(s, a, b, c, d)
	sameOrder(t, "priority table", s.Ordered(acl), []*Entry{b, d, a, c})

	// Two LPM keys: the last one (k1) orders the entries.
	lpm := testTable("lpm", ir.MatchLPM, ir.MatchLPM)
	le := func(p0, p1 int) *Entry {
		e := &Entry{Table: lpm, Matches: []Match{{Key: "k0", Kind: ir.MatchLPM, Value: v(0), PrefixLen: p0}}}
		if p1 >= 0 {
			e.Matches = append(e.Matches, Match{Key: "k1", Kind: ir.MatchLPM, Value: v(0), PrefixLen: p1})
		}
		return e
	}
	omitted, short, long, tie := le(8, -1), le(8, 2), le(0, 6), le(1, 2)
	s = NewStore()
	insert(s, omitted, short, long, tie)
	sameOrder(t, "lpm table", s.Ordered(lpm), []*Entry{long, short, tie, omitted})

	exact := testTable("exact", ir.MatchExact)
	ee := func(x uint64) *Entry {
		return &Entry{Table: exact, Matches: []Match{{Key: "k0", Kind: ir.MatchExact, Value: v(x)}}}
	}
	x, y, z := ee(9), ee(1), ee(5)
	s = NewStore()
	insert(s, x, y, z)
	sameOrder(t, "exact table", s.Ordered(exact), []*Entry{x, y, z})
}
