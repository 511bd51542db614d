package pdpi

import (
	"sort"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/value"
)

// Cond is one match of an entry lowered to a masked equality over its
// key field: a field value fv satisfies it iff fv&Mask == Want. Exact
// is set for exact and optional matches, whose Mask is all ones and
// which compare fv == Want directly.
type Cond struct {
	Key   int // index of the key in the table's Keys
	Exact bool
	Mask  value.V
	Want  value.V
}

// Lower lowers one match of an entry of table t. It reports false when
// no field value satisfies the match, so the entry matches nothing: the
// match names no key of t, or a ternary value has bits outside its mask
// (fv&Mask never does). An LPM value is masked to its prefix.
//
// Lower and Ordered state how a table lookup selects an entry for the
// symbolic executor, its witness engine and the compiled simulator. The
// interpreter (bmv2) and the switch under test keep their own code, so
// that they check this one.
func Lower(t *ir.Table, m *Match) (Cond, bool) {
	for i := range t.Keys {
		if t.Keys[i].Name != m.Key {
			continue
		}
		w := t.Keys[i].Field.Width
		switch m.Kind {
		case ir.MatchLPM:
			mask := value.PrefixMask(m.PrefixLen, w)
			return Cond{Key: i, Mask: mask, Want: m.Value.And(mask)}, true
		case ir.MatchTernary:
			return Cond{Key: i, Mask: m.Mask, Want: m.Value}, m.Value.And(m.Mask).Equal(m.Value)
		default:
			return Cond{Key: i, Exact: true, Mask: value.Ones(w), Want: m.Value}, true
		}
	}
	return Cond{}, false
}

// Ordered returns the entries of table t in descending match precedence,
// so that a lookup selects the first entry that matches:
//
//   - a table with a ternary or optional key (NeedsPriority) by priority,
//     highest first, ties in insertion order;
//   - a table with an LPM key by the prefix length of its last LPM key,
//     longest first, entries that omit that key last;
//   - any other table in insertion order: its entries are disjoint.
//
// The result is a snapshot that the caller must not modify.
func (s *Store) Ordered(t *ir.Table) []*Entry {
	var rank func(*Entry) int
	if NeedsPriority(t) {
		rank = func(e *Entry) int { return int(e.Priority) }
	} else {
		for _, k := range t.Keys {
			if k.Match == ir.MatchLPM {
				key := k.Name
				rank = func(e *Entry) int {
					if m, ok := e.Match(key); ok {
						return m.PrefixLen
					}
					return -1
				}
			}
		}
	}
	entries := s.Entries(t.Name)
	if rank == nil {
		return entries
	}
	entries = append([]*Entry(nil), entries...)
	sort.SliceStable(entries, func(i, j int) bool { return rank(entries[i]) > rank(entries[j]) })
	return entries
}
