// Package pdpi provides the program-dependent semantic representation of
// table entries, in the spirit of the P4-PDPI framework the paper builds
// on: entries are expressed over a specific P4 model's tables, keys and
// actions with typed bitvector values, independent of the P4Runtime wire
// encoding.
package pdpi

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/value"
)

// Match is the value supplied for one key field of an entry. The match
// kind dictates which fields are meaningful:
//
//   - exact: Value
//   - lpm: Value and PrefixLen
//   - ternary: Value and Mask
//   - optional: Value (an omitted optional key is simply absent)
type Match struct {
	Key       string
	Kind      ir.MatchKind
	Value     value.V
	Mask      value.V
	PrefixLen int
}

// ActionInvocation is an action with concrete arguments.
type ActionInvocation struct {
	Action *ir.Action
	Args   []value.V
}

// WeightedAction is one member of a one-shot action set.
type WeightedAction struct {
	ActionInvocation
	Weight int
}

// Entry is a semantic table entry.
type Entry struct {
	Table   *ir.Table
	Matches []Match
	// Priority orders ternary/optional entries (higher wins). It must be 0
	// for tables whose keys are all exact/lpm.
	Priority int32
	// Action is set for plain tables; ActionSet for selector tables.
	Action    *ActionInvocation
	ActionSet []WeightedAction
}

// Match returns the match for the named key, if supplied.
func (e *Entry) Match(key string) (Match, bool) {
	for _, m := range e.Matches {
		if m.Key == key {
			return m, true
		}
	}
	return Match{}, false
}

// NeedsPriority reports whether entries of table t are ordered by an
// explicit priority (i.e. the table has a ternary or optional key).
func NeedsPriority(t *ir.Table) bool {
	for _, k := range t.Keys {
		if k.Match == ir.MatchTernary || k.Match == ir.MatchOptional {
			return true
		}
	}
	return false
}

// Validate checks that the entry is well-formed with respect to its
// table's schema: every supplied match names a real key with the right
// kind and in-range values, mandatory (exact/lpm) keys are all present, no
// key is matched twice, the priority discipline is respected, and the
// action (or action set, for selector tables) is permitted by the table.
//
// This is the "syntactic validity" notion of §4: it does not check
// @entry_restriction or @refers_to constraints.
func (e *Entry) Validate() error {
	t := e.Table
	if t == nil {
		return fmt.Errorf("pdpi: entry has no table")
	}
	seen := map[string]bool{}
	for _, m := range e.Matches {
		k, ok := t.KeyByName(m.Key)
		if !ok {
			return fmt.Errorf("pdpi: table %s has no key %q", t.Name, m.Key)
		}
		if seen[m.Key] {
			return fmt.Errorf("pdpi: duplicate match on key %q", m.Key)
		}
		seen[m.Key] = true
		if m.Kind != k.Match {
			return fmt.Errorf("pdpi: key %q is %s, match is %s", m.Key, k.Match, m.Kind)
		}
		w := k.Field.Width
		if m.Value.Width != w {
			return fmt.Errorf("pdpi: key %q value width %d, want %d", m.Key, m.Value.Width, w)
		}
		switch m.Kind {
		case ir.MatchLPM:
			if m.PrefixLen < 0 || m.PrefixLen > w {
				return fmt.Errorf("pdpi: key %q prefix length %d out of range [0,%d]", m.Key, m.PrefixLen, w)
			}
			// The value must have no bits outside the prefix (canonical form).
			if !m.Value.And(value.PrefixMask(m.PrefixLen, w).Not()).IsZero() {
				return fmt.Errorf("pdpi: key %q lpm value has bits below the prefix", m.Key)
			}
		case ir.MatchTernary:
			if m.Mask.Width != w {
				return fmt.Errorf("pdpi: key %q mask width %d, want %d", m.Key, m.Mask.Width, w)
			}
			if m.Mask.IsZero() {
				return fmt.Errorf("pdpi: key %q ternary match with zero mask must be omitted", m.Key)
			}
			// Value bits outside the mask are non-canonical.
			if !m.Value.And(m.Mask.Not()).IsZero() {
				return fmt.Errorf("pdpi: key %q ternary value has bits outside the mask", m.Key)
			}
		}
	}
	for _, k := range t.Keys {
		if (k.Match == ir.MatchExact || k.Match == ir.MatchLPM) && !seen[k.Name] {
			return fmt.Errorf("pdpi: mandatory key %q is missing", k.Name)
		}
	}
	if NeedsPriority(t) {
		if e.Priority <= 0 {
			return fmt.Errorf("pdpi: table %s requires a positive priority", t.Name)
		}
	} else if e.Priority != 0 {
		return fmt.Errorf("pdpi: table %s does not use priorities", t.Name)
	}

	if t.IsSelector {
		if e.Action != nil || len(e.ActionSet) == 0 {
			return fmt.Errorf("pdpi: table %s requires a one-shot action set", t.Name)
		}
		for _, wa := range e.ActionSet {
			if wa.Weight <= 0 {
				return fmt.Errorf("pdpi: action set weight %d must be positive", wa.Weight)
			}
			if err := e.validateInvocation(&wa.ActionInvocation); err != nil {
				return err
			}
		}
		return nil
	}
	if len(e.ActionSet) != 0 {
		return fmt.Errorf("pdpi: table %s is not a selector table; action sets are not allowed", t.Name)
	}
	if e.Action == nil {
		return fmt.Errorf("pdpi: entry has no action")
	}
	return e.validateInvocation(e.Action)
}

func (e *Entry) validateInvocation(inv *ActionInvocation) error {
	t := e.Table
	if inv.Action == nil {
		return fmt.Errorf("pdpi: missing action")
	}
	if !t.HasAction(inv.Action) {
		return fmt.Errorf("pdpi: action %s is not permitted in table %s", inv.Action.Name, t.Name)
	}
	if len(inv.Args) != len(inv.Action.Params) {
		return fmt.Errorf("pdpi: action %s takes %d args, got %d", inv.Action.Name, len(inv.Action.Params), len(inv.Args))
	}
	for i, arg := range inv.Args {
		if arg.Width != inv.Action.Params[i].Width {
			return fmt.Errorf("pdpi: action %s arg %d width %d, want %d",
				inv.Action.Name, i, arg.Width, inv.Action.Params[i].Width)
		}
	}
	return nil
}

// Key returns a canonical string identifying the entry's match (table,
// matches and priority, excluding the action), used for duplicate
// detection: two entries with equal Key() collide in the table. It is on
// the hot path of every store operation, so it avoids fmt.
func (e *Entry) Key() string {
	parts := make([]string, 0, len(e.Matches))
	for _, m := range e.Matches {
		var b strings.Builder
		b.Grow(len(m.Key) + 48)
		b.WriteString(m.Key)
		b.WriteByte('=')
		b.WriteString(m.Value.String())
		switch m.Kind {
		case ir.MatchLPM:
			b.WriteByte('/')
			b.WriteString(strconv.Itoa(m.PrefixLen))
		case ir.MatchTernary:
			b.WriteByte('&')
			b.WriteString(m.Mask.String())
		}
		parts = append(parts, b.String())
	}
	sort.Strings(parts)
	var b strings.Builder
	b.Grow(len(e.Table.Name) + 16)
	b.WriteString(e.Table.Name)
	b.WriteByte('[')
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p)
	}
	b.WriteString("]@")
	b.WriteString(strconv.Itoa(int(e.Priority)))
	return b.String()
}

// String renders the entry in the human-readable form of the paper's
// Figure 3, with every action-set member's arguments.
func (e *Entry) String() string {
	var b strings.Builder
	b.WriteString(e.Table.Name)
	b.WriteString(" ")
	for i, m := range e.Matches {
		if i > 0 {
			b.WriteString(" ")
		}
		switch m.Kind {
		case ir.MatchLPM:
			fmt.Fprintf(&b, "%s/%d", m.Value, m.PrefixLen)
		case ir.MatchTernary:
			fmt.Fprintf(&b, "%s&%s", m.Value, m.Mask)
		default:
			b.WriteString(m.Value.String())
		}
	}
	b.WriteString(" => ")
	e.writeAction(&b)
	if e.Priority != 0 {
		fmt.Fprintf(&b, " @%d", e.Priority)
	}
	return b.String()
}

// ActionString renders what Key leaves out: the entry's action with its
// arguments, or its action set with every member's arguments and weight.
// Key() plus ActionString() identify an entry losslessly.
func (e *Entry) ActionString() string {
	var b strings.Builder
	e.writeAction(&b)
	return b.String()
}

func (e *Entry) writeAction(b *strings.Builder) {
	invocation := func(inv *ActionInvocation) {
		b.WriteString(inv.Action.Name)
		for _, a := range inv.Args {
			b.WriteByte(' ')
			b.WriteString(a.String())
		}
	}
	switch {
	case e.Action != nil:
		invocation(e.Action)
	case len(e.ActionSet) > 0:
		for i := range e.ActionSet {
			if i > 0 {
				b.WriteString(" + ")
			}
			invocation(&e.ActionSet[i].ActionInvocation)
			b.WriteByte('*')
			b.WriteString(strconv.Itoa(e.ActionSet[i].Weight))
		}
	default:
		b.WriteString("<no action>")
	}
}

// Equal reports whether e and o are the same entry, losslessly: the same
// table, the same matches in the same order, the same priority, and the
// same action or action set, down to every member's arguments and weight.
// Identity is checked first: the oracle mostly compares an entry read
// back unchanged with itself.
func (e *Entry) Equal(o *Entry) bool {
	if e == o {
		return true
	}
	if e.Table.Name != o.Table.Name || e.Priority != o.Priority ||
		len(e.Matches) != len(o.Matches) || len(e.ActionSet) != len(o.ActionSet) ||
		(e.Action == nil) != (o.Action == nil) {
		return false
	}
	for i := range e.Matches {
		if e.Matches[i] != o.Matches[i] {
			return false
		}
	}
	if e.Action != nil && !e.Action.equal(o.Action) {
		return false
	}
	for i := range e.ActionSet {
		a, b := &e.ActionSet[i], &o.ActionSet[i]
		if a.Weight != b.Weight || !a.ActionInvocation.equal(&b.ActionInvocation) {
			return false
		}
	}
	return true
}

func (inv *ActionInvocation) equal(o *ActionInvocation) bool {
	if inv.Action.Name != o.Action.Name || len(inv.Args) != len(o.Args) {
		return false
	}
	for i := range inv.Args {
		if inv.Args[i] != o.Args[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the entry.
func (e *Entry) Clone() *Entry {
	out := &Entry{Table: e.Table, Priority: e.Priority}
	out.Matches = append([]Match(nil), e.Matches...)
	if e.Action != nil {
		inv := *e.Action
		inv.Args = append([]value.V(nil), e.Action.Args...)
		out.Action = &inv
	}
	for _, wa := range e.ActionSet {
		cp := wa
		cp.Args = append([]value.V(nil), wa.Args...)
		out.ActionSet = append(out.ActionSet, cp)
	}
	return out
}
