package fuzzer

import (
	"switchv/internal/p4/ir"
	"switchv/internal/p4rt"
)

// A mutation takes an intended-valid update and makes it "interestingly"
// invalid (§4.2). Each returns false if it does not apply to the given
// update, so the driver can pick another.
type mutation struct {
	name  string
	apply func(f *Fuzzer, u *p4rt.Update) bool
}

// Mutations is the curated catalog, modeled on the paper's examples:
// Invalid ID (table/field/action), Invalid Table Action, Invalid Match
// Type, Duplicate Match Field, Missing Mandatory Match Field, Invalid
// Action Selector Weight, Invalid Table Implementation, Invalid
// Reference, plus duplicate-insert/delete-missing and the canonical
// bytestring class.
var mutations = []mutation{
	{"InvalidTableID", func(f *Fuzzer, u *p4rt.Update) bool {
		u.Entry.TableID = 0x7f000000 + uint32(f.rng.Intn(1000))
		return true
	}},
	{"InvalidActionID", func(f *Fuzzer, u *p4rt.Update) bool {
		if u.Entry.Action.Action == nil {
			return false
		}
		u.Entry.Action.Action.ActionID = 0x7f000000 + uint32(f.rng.Intn(1000))
		return true
	}},
	{"InvalidMatchFieldID", func(f *Fuzzer, u *p4rt.Update) bool {
		if len(u.Entry.Match) == 0 {
			return false
		}
		u.Entry.Match[f.rng.Intn(len(u.Entry.Match))].FieldID = 200 + uint32(f.rng.Intn(100))
		return true
	}},
	{"InvalidTableAction", func(f *Fuzzer, u *p4rt.Update) bool {
		// Replace the action with one that exists in the program but is
		// out of scope for this table.
		if u.Entry.Action.Action == nil {
			return false
		}
		t, ok := f.info.TableByID(u.Entry.TableID)
		if !ok {
			return false
		}
		for _, a := range f.info.Actions() {
			if !t.HasAction(a) && len(a.Params) == 0 {
				u.Entry.Action.Action = &p4rt.Action{ActionID: a.ID}
				return true
			}
		}
		return false
	}},
	{"InvalidMatchType", func(f *Fuzzer, u *p4rt.Update) bool {
		// Exact value re-sent as an LPM match (or vice versa).
		for i := range u.Entry.Match {
			m := &u.Entry.Match[i]
			if m.Exact != nil {
				m.LPM = &p4rt.LPMMatch{Value: m.Exact.Value, PrefixLen: 8}
				m.Exact = nil
				return true
			}
			if m.LPM != nil {
				m.Exact = &p4rt.ExactMatch{Value: m.LPM.Value}
				m.LPM = nil
				return true
			}
		}
		return false
	}},
	{"DuplicateMatchField", func(f *Fuzzer, u *p4rt.Update) bool {
		if len(u.Entry.Match) == 0 {
			return false
		}
		m := u.Entry.Match[f.rng.Intn(len(u.Entry.Match))]
		u.Entry.Match = append(u.Entry.Match, m)
		return true
	}},
	{"MissingMandatoryMatchField", func(f *Fuzzer, u *p4rt.Update) bool {
		t, ok := f.info.TableByID(u.Entry.TableID)
		if !ok {
			return false
		}
		for i := range u.Entry.Match {
			k, ok := f.info.MatchFieldByID(t, int(u.Entry.Match[i].FieldID))
			if !ok {
				continue
			}
			if k.Match == ir.MatchExact || k.Match == ir.MatchLPM {
				u.Entry.Match = append(u.Entry.Match[:i], u.Entry.Match[i+1:]...)
				return true
			}
		}
		return false
	}},
	{"InvalidActionSelectorWeight", func(f *Fuzzer, u *p4rt.Update) bool {
		if len(u.Entry.Action.ActionSet) == 0 {
			return false
		}
		i := f.rng.Intn(len(u.Entry.Action.ActionSet))
		u.Entry.Action.ActionSet[i].Weight = int32(-f.rng.Intn(2)) // 0 or -1
		return true
	}},
	{"InvalidTableImplementation", func(f *Fuzzer, u *p4rt.Update) bool {
		// Send an action set to a single-action table or vice versa.
		if u.Entry.Action.Action != nil {
			a := *u.Entry.Action.Action
			u.Entry.Action.Action = nil
			u.Entry.Action.HasActionSet = true
			u.Entry.Action.ActionSet = []p4rt.ActionProfileAction{{Action: a, Weight: 1}}
			return true
		}
		if len(u.Entry.Action.ActionSet) > 0 {
			a := u.Entry.Action.ActionSet[0].Action
			u.Entry.Action.ActionSet = nil
			u.Entry.Action.HasActionSet = false
			u.Entry.Action.Action = &a
			return true
		}
		return false
	}},
	{"InvalidReference", func(f *Fuzzer, u *p4rt.Update) bool {
		// Point a @refers_to field at a value that is not installed.
		t, ok := f.info.TableByID(u.Entry.TableID)
		if !ok {
			return false
		}
		for i := range u.Entry.Match {
			k, ok := f.info.MatchFieldByID(t, int(u.Entry.Match[i].FieldID))
			if !ok || k.RefersTo == nil || u.Entry.Match[i].Exact == nil {
				continue
			}
			u.Entry.Match[i].Exact.Value = f.unusedRefValue(k.RefersTo, k.Field.Width)
			return true
		}
		if a := u.Entry.Action.Action; a != nil {
			act, ok := f.info.ActionByID(a.ActionID)
			if !ok {
				return false
			}
			for i := range a.Params {
				p, ok := f.info.ParamByID(act, int(a.Params[i].ParamID))
				if !ok || p.RefersTo == nil {
					continue
				}
				a.Params[i].Value = f.unusedRefValue(p.RefersTo, p.Width)
				return true
			}
		}
		return false
	}},
	{"NonCanonicalBytes", func(f *Fuzzer, u *p4rt.Update) bool {
		// Prepend a zero byte to a value (the leading-zero-bytes bug
		// class from the paper's appendix).
		for i := range u.Entry.Match {
			if m := u.Entry.Match[i].Exact; m != nil {
				m.Value = append([]byte{0}, m.Value...)
				return true
			}
		}
		if a := u.Entry.Action.Action; a != nil && len(a.Params) > 0 {
			a.Params[0].Value = append([]byte{0}, a.Params[0].Value...)
			return true
		}
		return false
	}},
	{"ValueOutOfRange", func(f *Fuzzer, u *p4rt.Update) bool {
		// Make a value wider than its field.
		t, ok := f.info.TableByID(u.Entry.TableID)
		if !ok {
			return false
		}
		for i := range u.Entry.Match {
			k, ok := f.info.MatchFieldByID(t, int(u.Entry.Match[i].FieldID))
			if !ok || u.Entry.Match[i].Exact == nil {
				continue
			}
			n := (k.Field.Width+7)/8 + 1
			big := make([]byte, n)
			big[0] = 0xff
			u.Entry.Match[i].Exact.Value = big
			return true
		}
		return false
	}},
	{"WrongParamCount", func(f *Fuzzer, u *p4rt.Update) bool {
		if a := u.Entry.Action.Action; a != nil && len(a.Params) > 0 {
			a.Params = a.Params[:len(a.Params)-1]
			return true
		}
		return false
	}},
	{"InvalidPriority", func(f *Fuzzer, u *p4rt.Update) bool {
		t, ok := f.info.TableByID(u.Entry.TableID)
		if !ok {
			return false
		}
		needs := false
		for _, k := range t.Keys {
			if k.Match == ir.MatchTernary || k.Match == ir.MatchOptional {
				needs = true
			}
		}
		if needs {
			u.Entry.Priority = 0 // required-but-missing
		} else {
			u.Entry.Priority = int32(1 + f.rng.Intn(10)) // forbidden-but-present
		}
		return true
	}},
	{"DeleteNonExistent", func(f *Fuzzer, u *p4rt.Update) bool {
		// Turn an insert of a fresh (not installed) entry into a delete.
		if u.Type != p4rt.Insert {
			return false
		}
		e, err := p4rt.FromWire(f.info, &u.Entry)
		if err != nil {
			return false
		}
		if _, exists := f.installed.Get(e); exists {
			return false
		}
		u.Type = p4rt.Delete
		return true
	}},
	{"DuplicateInsert", func(f *Fuzzer, u *p4rt.Update) bool {
		// Re-insert an entry we believe is already installed.
		e := f.randomInstalled()
		if e == nil {
			return false
		}
		u.Type = p4rt.Insert
		u.Entry = p4rt.ToWire(e)
		return true
	}},
}

// unusedRefValue returns a canonical value for a reference field that is
// guaranteed not to be installed in the referenced table.
func (f *Fuzzer) unusedRefValue(ref *ir.Reference, width int) []byte {
	used := map[string]bool{}
	for _, e := range f.installed.Entries(ref.Table) {
		if m, ok := e.Match(ref.Field); ok {
			used[m.Value.String()] = true
		}
	}
	for i := 0; i < 1000; i++ {
		v := f.randValue(width)
		if !used[v.String()] {
			return p4rt.EncodeValue(v)
		}
	}
	return p4rt.EncodeValue(f.randValue(width))
}

// mutate applies a random applicable mutation from the catalog.
func (f *Fuzzer) mutate(gu GeneratedUpdate) GeneratedUpdate {
	// Blind campaigns try the catalog in a uniform random order; guided
	// ones order it by mutation-class energy, so classes the campaign has
	// applied least come up first (their verdict-outcome cells are the
	// least covered).
	var order []int
	if f.guide != nil {
		order = f.guide.PickMutationOrder(f.rng, mutationNames)
	} else {
		order = f.rng.Perm(len(mutations))
	}
	for _, i := range order {
		m := mutations[i]
		u := gu.Update // shallow copy; apply mutates in place
		if m.apply(f, &u) {
			f.MutatedCount++
			f.PerMutation[m.name]++
			f.cov.NoteMutation(m.name)
			return GeneratedUpdate{Update: u, Mutation: m.name}
		}
	}
	return gu
}

// mutationNames caches the catalog's names in catalog order (the order
// PickMutationOrder indexes into).
var mutationNames = func() []string {
	out := make([]string, len(mutations))
	for i, m := range mutations {
		out[i] = m.name
	}
	return out
}()

// MutationNames lists the catalog for reporting.
func MutationNames() []string {
	return append([]string(nil), mutationNames...)
}
