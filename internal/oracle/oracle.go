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

	// seen memoizes the decode of every entry of the last read-back,
	// keyed by the entry's wire encoding (p4rt.AppendEntryKey). FromWire
	// is a pure function of the P4Info and the wire entry, so an entry
	// read back unchanged is not decoded again. Each read-back replaces
	// the memo, which so holds only the latest read-back's entries.
	seen map[string]*seenEntry

	// refs counts the references the entries of refsFor hold, while
	// refsFor is the state and its version is still refsVersion. Each
	// batch carries it to the adopted state through the replayed
	// updates' deltas when the read-back equals the expected state; any
	// other batch, or a change to the state from outside, drops it and
	// the next batch rebuilds it from the state.
	refs        refIndex
	refsFor     *pdpi.Store
	refsVersion uint64
}

// seenEntry is one read-back entry's decode, with the wire encoding that
// keys it in Oracle.seen.
type seenEntry struct {
	wire string
	decoded
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

// State exposes the oracle's last observed switch state. The next
// CheckBatch replays its batch onto this store in place, so a caller
// that keeps the state of one batch must Clone it.
func (o *Oracle) State() *pdpi.Store { return o.state }

// Classify determines an update's ground-truth verdict against a given
// state: the format check of p4rt.FromWire, @entry_restriction compliance,
// @refers_to referential integrity, applicability, and resource
// guarantees.
func (o *Oracle) Classify(state *pdpi.Store, u *p4rt.Update) (Verdict, string) {
	v, r := o.classify(state, buildRefIndex(o.info, state), u.Type, o.decode(&u.Entry))
	return v, r.msg
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

// reason is why an update gets its verdict: the message a violation
// quotes, whether the verdict depends on the switch's entries (so the
// order the switch executes a batch in can change it), and the status
// code the specification requires when the switch rejects the update
// (OK when it requires none).
type reason struct {
	msg   string
	state bool
	code  p4rt.Code
}

// The fixed reasons. Each depends on the switch's entries, and so does
// every accept: whether an update applies depends on what is installed.
var (
	accept        = reason{state: true}
	alreadyExists = reason{"entry already exists", true, p4rt.AlreadyExists}
	beyondSize    = reason{msg: "table beyond guaranteed size", state: true}
	modifyMissing = reason{"modify of non-existent entry", true, p4rt.NotFound}
	deleteMissing = reason{"delete of non-existent entry", true, p4rt.NotFound}
	wouldDangle   = reason{msg: "delete would dangle references", state: true}
)

func (o *Oracle) classify(state *pdpi.Store, idx refIndex, typ p4rt.UpdateType, d decoded) (Verdict, reason) {
	if d.err != nil {
		return MustReject, reason{msg: fmt.Sprintf("syntactically invalid: %v", d.err)}
	}
	e := d.e
	ok, err := constraints.CheckEntry(e)
	if err != nil {
		return MustReject, reason{msg: fmt.Sprintf("constraint error: %v", err)}
	}
	if !ok {
		return MustReject, reason{msg: fmt.Sprintf("violates @entry_restriction of %s", e.Table.Name)}
	}
	if typ != p4rt.Delete {
		// Every @refers_to value of e must resolve in state.
		var r pdpi.Reference
		resolved := true
		e.References(func(ref pdpi.Reference) bool {
			for _, target := range state.Entries(ref.Table) {
				if m, ok := target.Match(ref.Field); ok && m.Value.Equal(ref.Value) {
					return true
				}
			}
			r, resolved = ref, false
			return false
		})
		if !resolved {
			return MustReject, reason{msg: fmt.Sprintf("reference to %s.%s = %s does not resolve", r.Table, r.Field, r.Value), state: true}
		}
	}
	installed, exists := state.GetKey(e.Table.Name, d.key)
	switch typ {
	case p4rt.Insert:
		if exists {
			return MustReject, alreadyExists
		}
		if state.TableLen(e.Table.Name) >= e.Table.Size {
			return MayReject, beyondSize
		}
		return MustAccept, accept
	case p4rt.Modify:
		if !exists {
			return MustReject, modifyMissing
		}
		return MustAccept, accept
	case p4rt.Delete:
		if !exists {
			return MustReject, deleteMissing
		}
		// Deleting an entry that other installed entries reference would
		// dangle their @refers_to values; referential integrity requires
		// rejection (§3 "P4-Constraints").
		if idx.breaksReferents(state, installed) {
			return MustReject, wouldDangle
		}
		return MustAccept, accept
	default:
		return MustReject, reason{msg: fmt.Sprintf("unknown update type %d", typ)}
	}
}

// refIndex counts, for each referenced key value, how many installed
// entries reference it via @refers_to; it makes the
// referential-integrity-on-delete check cheap per update.
type refIndex map[pdpi.Reference]int

// buildRefIndex scans a state once.
func buildRefIndex(info *p4info.Info, state *pdpi.Store) refIndex {
	idx := refIndex{}
	for _, t := range info.Tables() {
		for _, installed := range state.Entries(t.Name) {
			idx.add(installed, +1)
		}
	}
	return idx
}

// add adds delta to the count of every reference e holds, and deletes
// the counts that reach zero.
func (idx refIndex) add(e *pdpi.Entry, delta int) {
	e.References(func(r pdpi.Reference) bool {
		if n := idx[r] + delta; n != 0 {
			idx[r] = n
		} else {
			delete(idx, r)
		}
		return true
	})
}

// stateRefs returns the reference counts of the current state: the
// carried ones while they are current, else a fresh scan.
func (o *Oracle) stateRefs() refIndex {
	if o.refs == nil || o.refsFor != o.state || o.refsVersion != o.state.Version() {
		o.refs, o.refsFor, o.refsVersion = buildRefIndex(o.info, o.state), o.state, o.state.Version()
	}
	return o.refs
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
		if idx[pdpi.Reference{Table: e.Table.Name, Field: m.Key, Value: m.Value}] > 0 && !stillCovered(m.Key, m.Value) {
			return true
		}
	}
	return false
}

// CheckBatch judges a batch: the response statuses against each update's
// verdict, and the read-back against the state implied by the statuses.
// It then adopts the observed state as its new baseline and reports the
// per-update verdicts. Each update is decoded from the wire, and its key
// rendered, once per batch, and each read-back entry once while it stays
// installed unchanged; the read-back's decoded entries are compared with
// the expected ones structurally and become the adopted state.
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

	// Classify each update against the pre-batch state. Batches are
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
	idx := o.stateRefs()
	whys := make([]reason, len(req.Updates))
	for i := range req.Updates {
		u, d := &req.Updates[i], updates[i]
		verdict, why := o.classify(o.state, idx, u.Type, d)
		// Syntactic/constraint invalidity is order-independent; only
		// state-dependent verdicts are affected by batch collisions.
		if why.state && keyCount[d.key] > 1 {
			verdict = MayReject
		}
		// Several inserts into a near-full table may exceed capacity
		// depending on execution order; only guarantee acceptance when the
		// whole batch fits.
		if verdict == MustAccept && u.Type == p4rt.Insert {
			if t := d.e.Table; o.state.TableLen(t.Name)+insertsPerTable[t.Name] > t.Size {
				verdict = MayReject
			}
		}
		verdicts[i], whys[i] = verdict, why
	}

	// Judge each status, and replay the accepted updates onto the
	// pre-batch state, in place: it becomes the expected state.
	expected := o.state
	var replayed []replay
	for i := range req.Updates {
		u, d, verdict, why := &req.Updates[i], updates[i], verdicts[i], whys[i]
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
					Message:     fmt.Sprintf("switch accepted an update it must reject (%s)", why.msg),
				})
			} else if want := why.code; want != p4rt.OK && resp.Statuses[i].Code != want {
				// The specification pins the status code for these
				// rejections (e.g. ALREADY_EXISTS for duplicate inserts).
				violations = append(violations, Violation{
					UpdateIndex: i,
					Kind:        "wrong-status-code",
					Message:     fmt.Sprintf("rejected (%s) with %s, want %s", why.msg, resp.Statuses[i].Code, want),
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
		if accepted && d.err == nil {
			var applyErr error
			var r replay
			switch u.Type {
			case p4rt.Insert:
				applyErr = expected.InsertKey(d.e, d.key)
				r.added = d.e
			case p4rt.Modify:
				r.removed, _ = expected.GetKey(d.e.Table.Name, d.key)
				applyErr = expected.Modify(d.e)
				r.added = d.e
			case p4rt.Delete:
				r.removed, _ = expected.GetKey(d.e.Table.Name, d.key)
				applyErr = expected.Delete(d.e)
			}
			if applyErr != nil {
				violations = append(violations, Violation{
					UpdateIndex: i,
					Kind:        "inconsistent-acceptance",
					Message:     fmt.Sprintf("switch reported OK but the update cannot apply: %v", applyErr),
				})
			} else {
				replayed = append(replayed, r)
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
	}
	if len(readback) == 0 {
		// The adopted state equals the expected one, so its reference
		// counts are the pre-batch counts plus the replayed deltas.
		for _, r := range replayed {
			if r.removed != nil {
				idx.add(r.removed, -1)
			}
			if r.added != nil {
				idx.add(r.added, +1)
			}
		}
		o.refs, o.refsFor, o.refsVersion = idx, o.state, o.state.Version()
	} else {
		o.refs = nil
	}
	return verdicts, violations
}

// replay is one update replayed onto the expected state: the entry it
// removed and the entry it added, nil for none.
type replay struct{ removed, added *pdpi.Entry }

// checkReadback verifies the observed entries decode cleanly (canonical
// bytestrings, §4's format rules apply to reads too) and match the
// expected state exactly, down to every action-set member's arguments.
// It returns the observed entries as a store, in read-back order, or nil
// when some entry is malformed or read twice. Entries come through the
// decode memo, so only new or changed ones are decoded.
//
// A read-back that lists the expected entries in the expected order,
// which a correct switch returns, is adopted as the expected store
// itself: it holds the observed entries in read-back order already. The
// memo then takes the expected store's entries, so the state and the
// memo share one copy of each entry and the next comparison of an
// unchanged entry is an identity check.
func (o *Oracle) checkReadback(expected *pdpi.Store, observed p4rt.ReadResponse) (*pdpi.Store, []Violation) {
	seen := make(map[string]*seenEntry, len(observed.Entries))
	read := make([]*seenEntry, len(observed.Entries))
	want := expected.All(o.info.Program())
	inOrder := len(want) == len(observed.Entries)
	var wire []byte
	for i := range observed.Entries {
		read[i], wire = o.decodeRead(&observed.Entries[i], seen, wire)
		if s := read[i]; inOrder {
			if s.err == nil && s.e.Equal(want[i]) {
				s.e = want[i]
			} else {
				inOrder = false
			}
		}
	}
	o.seen = seen
	if inOrder {
		return expected, nil
	}

	var violations []Violation
	got := pdpi.NewStore()
	adoptable := true
	matched := 0
	for i, d := range read {
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
	if matched < len(want) {
		for _, w := range want {
			if _, ok := got.Get(w); !ok {
				violations = append(violations, Violation{
					UpdateIndex: -1,
					Kind:        "readback-missing",
					Message:     "switch lost entry: " + w.Key(),
				})
			}
		}
	}
	if !adoptable {
		return nil, violations
	}
	return got, violations
}

// decodeRead decodes one read-back entry through the memo of the last
// read-back and records it in next, the memo of this one. wire is
// scratch space for the entry's key, handed back for reuse. An entry the
// key cannot represent is decoded every time and left out of the memo.
func (o *Oracle) decodeRead(te *p4rt.TableEntry, next map[string]*seenEntry, wire []byte) (*seenEntry, []byte) {
	wire, ok := p4rt.AppendEntryKey(wire[:0], te)
	if !ok {
		return &seenEntry{decoded: o.decode(te)}, wire
	}
	s := o.seen[string(wire)]
	if s == nil {
		s = next[string(wire)] // read twice in this read-back
	}
	if s == nil {
		s = &seenEntry{wire: string(wire), decoded: o.decode(te)}
	}
	next[s.wire] = s
	return s, wire
}
