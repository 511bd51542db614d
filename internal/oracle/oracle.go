// Package oracle implements p4-fuzzer's P4Runtime oracle (§4.3): given a
// batch of updates, the switch's per-update statuses, and a read-back of
// the switch's state, it judges whether the observed behavior is
// admissible under the P4Runtime specification instantiated for the
// model.
//
// The oracle never predicts a single outcome. Under-specification (batch
// ordering, resource-limit rejections) admits many valid behaviors, so it
// checks membership in the valid set instead, and it re-reads the switch
// after every batch so only one starting state needs tracking.
package oracle

import (
	"fmt"
	"strings"

	"switchv/internal/coverage"
	"switchv/internal/p4/constraints"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
	"switchv/internal/p4rt"
)

// Verdict classifies the ground-truth validity of one update.
type Verdict int

// Verdicts.
const (
	// MustAccept: valid, applicable in the current state, within resource
	// guarantees — the switch has to accept.
	MustAccept Verdict = iota
	// MayReject: valid but the switch is allowed to reject it (e.g. an
	// insert beyond the table's guaranteed size).
	MayReject
	// MustReject: syntactically invalid, constraint-violating,
	// reference-violating, or inapplicable (duplicate insert, delete of a
	// missing entry).
	MustReject
)

func (v Verdict) String() string {
	switch v {
	case MustAccept:
		return "must-accept"
	case MayReject:
		return "may-reject"
	case MustReject:
		return "must-reject"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Violation is one admissibility failure.
type Violation struct {
	// UpdateIndex is the offending update's position in the batch, or -1
	// for state-level violations found in the read-back.
	UpdateIndex int
	Kind        string
	Message     string
}

func (v Violation) String() string {
	if v.UpdateIndex < 0 {
		return fmt.Sprintf("[state] %s: %s", v.Kind, v.Message)
	}
	return fmt.Sprintf("[update %d] %s: %s", v.UpdateIndex, v.Kind, v.Message)
}

// Oracle tracks the last observed switch state and judges batches.
type Oracle struct {
	info  *p4info.Info
	state *pdpi.Store
	cov   *coverage.Map
}

// UnknownOutcome is the status torn-write reconciliation gives an update
// whose outcome it cannot know from the read-back: it may not have been
// applied. CheckBatch exempts an update with exactly this status from
// judgement and does not replay it onto the expected state. The
// read-back check still holds, because reconciliation gives it only to
// updates whose effect is absent from the observed state. Any other
// UNAVAILABLE status is the switch's own answer and is judged.
var UnknownOutcome = p4rt.Statusf(p4rt.Unavailable, "reconciled: outcome unknown or not applied")

// New returns an oracle starting from an empty switch.
func New(info *p4info.Info) *Oracle {
	return &Oracle{info: info, state: pdpi.NewStore()}
}

// SetCoverage attaches a coverage map; CheckBatch then accounts every
// update's (table, verdict, switch decision) cell into it, so campaigns
// can see which verdict outcomes each table has been tested under.
func (o *Oracle) SetCoverage(m *coverage.Map) { o.cov = m }

// State exposes the oracle's last observed switch state.
func (o *Oracle) State() *pdpi.Store { return o.state }

// Classify determines an update's ground-truth verdict against a given
// state: the format check of p4rt.FromWire, @entry_restriction compliance,
// @refers_to referential integrity, applicability, and resource
// guarantees.
func (o *Oracle) Classify(state *pdpi.Store, u *p4rt.Update) (Verdict, string) {
	return o.classify(state, buildRefIndex(o.info, state), u.Type, o.decode(&u.Entry))
}

// decoded is one wire entry decoded once: the semantic entry and its
// rendered Key(), or the decode error.
type decoded struct {
	e   *pdpi.Entry
	key string
	err error
}

func (o *Oracle) decode(te *p4rt.TableEntry) decoded {
	e, err := p4rt.FromWire(o.info, te)
	if err != nil {
		return decoded{err: err}
	}
	return decoded{e: e, key: e.Key()}
}

// table names the decoded entry's table ("?" when it did not decode).
func (d decoded) table() string {
	if d.err != nil {
		return "?"
	}
	return d.e.Table.Name
}

func (o *Oracle) classify(state *pdpi.Store, idx refIndex, typ p4rt.UpdateType, d decoded) (Verdict, string) {
	if d.err != nil {
		return MustReject, fmt.Sprintf("syntactically invalid: %v", d.err)
	}
	e := d.e
	ok, err := constraints.CheckEntry(e)
	if err != nil {
		return MustReject, fmt.Sprintf("constraint error: %v", err)
	}
	if !ok {
		return MustReject, fmt.Sprintf("violates @entry_restriction of %s", e.Table.Name)
	}
	if typ != p4rt.Delete {
		if msg, bad := o.danglingReference(state, e); bad {
			return MustReject, msg
		}
	}
	installed, exists := state.GetKey(e.Table.Name, d.key)
	switch typ {
	case p4rt.Insert:
		if exists {
			return MustReject, "entry already exists"
		}
		if state.TableLen(e.Table.Name) >= e.Table.Size {
			return MayReject, "table beyond guaranteed size"
		}
		return MustAccept, ""
	case p4rt.Modify:
		if !exists {
			return MustReject, "modify of non-existent entry"
		}
		return MustAccept, ""
	case p4rt.Delete:
		if !exists {
			return MustReject, "delete of non-existent entry"
		}
		// Deleting an entry that other installed entries reference would
		// dangle their @refers_to values; referential integrity requires
		// rejection (§3 "P4-Constraints").
		if idx.breaksReferents(state, installed) {
			return MustReject, "delete would dangle references"
		}
		return MustAccept, ""
	default:
		return MustReject, fmt.Sprintf("unknown update type %d", typ)
	}
}

// danglingReference checks that every @refers_to value of e resolves in
// state.
func (o *Oracle) danglingReference(state *pdpi.Store, e *pdpi.Entry) (string, bool) {
	check := func(ref *pRef, v refValue) (string, bool) {
		for _, target := range state.Entries(ref.table) {
			if m, ok := target.Match(ref.field); ok && m.Value.Equal(v.v) {
				return "", false
			}
		}
		return fmt.Sprintf("reference to %s.%s = %s does not resolve", ref.table, ref.field, v.v), true
	}
	for _, m := range e.Matches {
		k, ok := e.Table.KeyByName(m.Key)
		if !ok || k.RefersTo == nil {
			continue
		}
		if msg, bad := check(&pRef{k.RefersTo.Table, k.RefersTo.Field}, refValue{m.Value}); bad {
			return msg, true
		}
	}
	invs := []*pdpi.ActionInvocation{}
	if e.Action != nil {
		invs = append(invs, e.Action)
	}
	for i := range e.ActionSet {
		invs = append(invs, &e.ActionSet[i].ActionInvocation)
	}
	for _, inv := range invs {
		for i, p := range inv.Action.Params {
			if p.RefersTo == nil {
				continue
			}
			if msg, bad := check(&pRef{p.RefersTo.Table, p.RefersTo.Field}, refValue{inv.Args[i]}); bad {
				return msg, true
			}
		}
	}
	return "", false
}

type pRef struct{ table, field string }
type refValue struct{ v value.V }

// refIndex counts, for each (table, field, value) target, how many
// installed entries reference it via @refers_to; it makes the
// referential-integrity-on-delete check cheap per update.
type refIndex map[string]int

func refIndexKey(table, field string, v value.V) string {
	return table + "\x00" + field + "\x00" + v.String()
}

// buildRefIndex scans a state once.
func buildRefIndex(info *p4info.Info, state *pdpi.Store) refIndex {
	idx := refIndex{}
	for _, t := range info.Tables() {
		for _, installed := range state.Entries(t.Name) {
			for _, m := range installed.Matches {
				if k, ok := t.KeyByName(m.Key); ok && k.RefersTo != nil {
					idx[refIndexKey(k.RefersTo.Table, k.RefersTo.Field, m.Value)]++
				}
			}
			var invs []*pdpi.ActionInvocation
			if installed.Action != nil {
				invs = append(invs, installed.Action)
			}
			for i := range installed.ActionSet {
				invs = append(invs, &installed.ActionSet[i].ActionInvocation)
			}
			for _, inv := range invs {
				for i, p := range inv.Action.Params {
					if p.RefersTo != nil && i < len(inv.Args) {
						idx[refIndexKey(p.RefersTo.Table, p.RefersTo.Field, inv.Args[i])]++
					}
				}
			}
		}
	}
	return idx
}

// breaksReferents reports whether deleting the installed entry e would
// dangle any installed reference: some entry references one of e's key
// values and no sibling of e carries that value.
func (idx refIndex) breaksReferents(state *pdpi.Store, e *pdpi.Entry) bool {
	stillCovered := func(field string, v value.V) bool {
		for _, sibling := range state.Entries(e.Table.Name) {
			if sibling == e {
				continue
			}
			if m, ok := sibling.Match(field); ok && m.Value.Equal(v) {
				return true
			}
		}
		return false
	}
	for _, m := range e.Matches {
		if idx[refIndexKey(e.Table.Name, m.Key, m.Value)] > 0 && !stillCovered(m.Key, m.Value) {
			return true
		}
	}
	return false
}

// CheckBatch judges a batch: the response statuses against each update's
// verdict, and the read-back against the state implied by the statuses.
// It then adopts the observed state as its new baseline and reports the
// per-update verdicts. Each update and each read-back entry is decoded
// from the wire, and its key rendered, once per batch; the read-back's
// decoded entries are compared with the expected ones structurally and
// become the adopted state.
func (o *Oracle) CheckBatch(req p4rt.WriteRequest, resp p4rt.WriteResponse, observed p4rt.ReadResponse) ([]Verdict, []Violation) {
	var violations []Violation
	verdicts := make([]Verdict, len(req.Updates))

	if len(resp.Statuses) != len(req.Updates) {
		violations = append(violations, Violation{
			UpdateIndex: -1,
			Kind:        "response-shape",
			Message:     fmt.Sprintf("%d statuses for %d updates", len(resp.Statuses), len(req.Updates)),
		})
		return verdicts, violations
	}

	// Judge each update against the pre-batch state. Batches are
	// dependency-free (the fuzzer guarantees it), but two updates in one
	// batch may still target the same entry key; since the switch may
	// execute a batch in any order (§4 Example 2), verdicts for colliding
	// keys are downgraded to may-reject.
	updates := make([]decoded, len(req.Updates))
	keyCount := map[string]int{}
	insertsPerTable := map[string]int{}
	for i := range req.Updates {
		d := o.decode(&req.Updates[i].Entry)
		updates[i] = d
		if d.err == nil {
			keyCount[d.key]++
			if req.Updates[i].Type == p4rt.Insert {
				insertsPerTable[d.e.Table.Name]++
			}
		}
	}

	expected := o.state.Clone()
	idx := buildRefIndex(o.info, o.state)
	for i := range req.Updates {
		u, d := &req.Updates[i], updates[i]
		verdict, why := o.classify(o.state, idx, u.Type, d)
		if verdict != MustReject || isStateDependent(why) {
			// Syntactic/constraint invalidity is order-independent; only
			// state-dependent verdicts are affected by batch collisions.
			if d.err == nil && keyCount[d.key] > 1 {
				verdict = MayReject
			}
		}
		// Several inserts into a near-full table may exceed capacity
		// depending on execution order; only guarantee acceptance when the
		// whole batch fits.
		if verdict == MustAccept && u.Type == p4rt.Insert {
			if t := d.e.Table; o.state.TableLen(t.Name)+insertsPerTable[t.Name] > t.Size {
				verdict = MayReject
			}
		}
		verdicts[i] = verdict
		accepted := resp.Statuses[i].Code == p4rt.OK
		if resp.Statuses[i] == UnknownOutcome {
			// Outcome unknown / not applied (per reconciliation): record
			// the verdict and coverage, but judge nothing and replay
			// nothing for this update.
			if o.cov != nil {
				o.cov.NoteVerdictOutcome(d.table(), verdict.String(), false)
			}
			continue
		}
		if o.cov != nil {
			o.cov.NoteVerdictOutcome(d.table(), verdict.String(), accepted)
		}
		switch verdict {
		case MustReject:
			if accepted {
				violations = append(violations, Violation{
					UpdateIndex: i,
					Kind:        "accepted-invalid",
					Message:     fmt.Sprintf("switch accepted an update it must reject (%s)", why),
				})
			} else if want := expectedCode(why); want != p4rt.OK && resp.Statuses[i].Code != want {
				// The specification pins the status code for these
				// rejections (e.g. ALREADY_EXISTS for duplicate inserts).
				violations = append(violations, Violation{
					UpdateIndex: i,
					Kind:        "wrong-status-code",
					Message:     fmt.Sprintf("rejected (%s) with %s, want %s", why, resp.Statuses[i].Code, want),
				})
			}
		case MustAccept:
			if !accepted {
				violations = append(violations, Violation{
					UpdateIndex: i,
					Kind:        "rejected-valid",
					Message:     fmt.Sprintf("switch rejected a valid update with %s", resp.Statuses[i]),
				})
			}
		case MayReject:
			// Either response is admissible.
		}
		// Replay accepted updates onto the expected state.
		if accepted && d.err == nil {
			var applyErr error
			switch u.Type {
			case p4rt.Insert:
				applyErr = expected.InsertKey(d.e, d.key)
			case p4rt.Modify:
				applyErr = expected.Modify(d.e)
			case p4rt.Delete:
				applyErr = expected.Delete(d.e)
			}
			if applyErr != nil {
				violations = append(violations, Violation{
					UpdateIndex: i,
					Kind:        "inconsistent-acceptance",
					Message:     fmt.Sprintf("switch reported OK but the update cannot apply: %v", applyErr),
				})
			}
		}
	}

	// Compare the read-back with the expected state, then adopt the
	// observed state as the new baseline (§4.3: "forget the prior
	// state"), regardless of violations, so one bad batch does not
	// cascade into noise. A read-back that cannot be a store (malformed
	// or duplicate entries) leaves the expected state instead.
	adopted, readback := o.checkReadback(expected, observed)
	violations = append(violations, readback...)
	if adopted != nil {
		o.state = adopted
	} else {
		o.state = expected
	}
	return verdicts, violations
}

// checkReadback verifies the observed entries decode cleanly (canonical
// bytestrings, §4's format rules apply to reads too) and match the
// expected state exactly, down to every action-set member's arguments.
// It returns the observed entries as a store, in read-back order, or nil
// when some entry is malformed or read twice.
func (o *Oracle) checkReadback(expected *pdpi.Store, observed p4rt.ReadResponse) (*pdpi.Store, []Violation) {
	var violations []Violation
	got := pdpi.NewStore()
	adoptable := true
	matched := 0
	for i := range observed.Entries {
		d := o.decode(&observed.Entries[i])
		if d.err != nil {
			violations = append(violations, Violation{
				UpdateIndex: -1,
				Kind:        "readback-format",
				Message:     fmt.Sprintf("read-back entry %d is malformed: %v", i, d.err),
			})
			adoptable = false
			continue
		}
		if err := got.InsertKey(d.e, d.key); err != nil {
			violations = append(violations, Violation{
				UpdateIndex: -1,
				Kind:        "readback-duplicate",
				Message:     "read returned the same entry twice: " + d.key,
			})
			adoptable = false
			continue
		}
		want, ok := expected.GetKey(d.e.Table.Name, d.key)
		if !ok {
			violations = append(violations, Violation{
				UpdateIndex: -1,
				Kind:        "readback-extra",
				Message:     "switch has an entry it should not: " + d.key,
			})
			continue
		}
		matched++
		if !want.Equal(d.e) {
			violations = append(violations, Violation{
				UpdateIndex: -1,
				Kind:        "readback-mismatch",
				Message:     fmt.Sprintf("entry differs: switch %s, expected %s", d.e, want),
			})
		}
	}
	if matched < expected.Len() {
		for _, want := range expected.All(o.info.Program()) {
			if _, ok := got.Get(want); !ok {
				violations = append(violations, Violation{
					UpdateIndex: -1,
					Kind:        "readback-missing",
					Message:     "switch lost entry: " + want.Key(),
				})
			}
		}
	}
	if !adoptable {
		return nil, violations
	}
	return got, violations
}

// isStateDependent reports whether a must-reject reason depends on the
// switch's current entries (and is therefore sensitive to batch ordering).
func isStateDependent(why string) bool {
	switch {
	case strings.HasPrefix(why, "entry already exists"),
		strings.HasPrefix(why, "delete of non-existent"),
		strings.HasPrefix(why, "modify of non-existent"),
		strings.HasPrefix(why, "delete would dangle"),
		strings.Contains(why, "does not resolve"):
		return true
	}
	return false
}

// expectedCode pins the status code the specification requires for a
// rejection reason (OK = no specific code required).
func expectedCode(why string) p4rt.Code {
	switch {
	case strings.HasPrefix(why, "entry already exists"):
		return p4rt.AlreadyExists
	case strings.HasPrefix(why, "delete of non-existent"),
		strings.HasPrefix(why, "modify of non-existent"):
		return p4rt.NotFound
	default:
		return p4rt.OK
	}
}
