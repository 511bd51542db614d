package fuzzer

import (
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4rt"
)

// NextBatch generates approximately Options.UpdatesPerRequest updates that
// are safe to execute in any order within one Write RPC (§4.4 "Running
// Test Requests"): no update's validity may depend on another update in
// the same batch. Dependency tracking is value-level — an update is
// deferred to the next batch only when it touches the same entry key as an
// earlier update, references a key value another update adds or removes,
// or adds/removes a key value another update references.
//
// The returned metadata slice parallels the request's updates.
func (f *Fuzzer) NextBatch() (p4rt.WriteRequest, []GeneratedUpdate, error) {
	var req p4rt.WriteRequest
	var meta []GeneratedUpdate
	tracker := newBatchTracker()
	var stillDeferred []GeneratedUpdate

	accept := func(gu GeneratedUpdate) bool {
		// Undecodable updates carry no analyzable dependencies.
		if facts, ok := f.decompose(&gu.Update); ok {
			if tracker.conflicts(&facts) {
				return false
			}
			tracker.note(&facts)
		}
		req.Updates = append(req.Updates, gu.Update)
		meta = append(meta, gu)
		return true
	}

	// Drain updates deferred from earlier batches first.
	for _, gu := range f.deferred {
		if len(req.Updates) >= f.opts.UpdatesPerRequest || !accept(gu) {
			stillDeferred = append(stillDeferred, gu)
		}
	}
	f.deferred = stillDeferred

	for len(req.Updates) < f.opts.UpdatesPerRequest {
		gu, err := f.GenerateUpdate()
		if err != nil {
			return req, meta, err
		}
		if !accept(gu) {
			f.deferred = append(f.deferred, gu)
			// Bound the deferral queue so pathological workloads cannot
			// grow it without limit; when full, close the batch.
			if len(f.deferred) >= f.opts.UpdatesPerRequest {
				break
			}
		}
	}
	return req, meta, nil
}

// refKey names one referenceable key value: "table\x00field\x00value".
type refKey string

func mkRefKey(table, field, value string) refKey {
	return refKey(table + "\x00" + field + "\x00" + value)
}

type batchTracker struct {
	entryKeys map[string]bool // entry keys touched in this batch
	provided  map[refKey]bool // key values added/removed by batch updates
	referred  map[refKey]bool // references made by batch updates
}

func newBatchTracker() *batchTracker {
	return &batchTracker{
		entryKeys: map[string]bool{},
		provided:  map[refKey]bool{},
		referred:  map[refKey]bool{},
	}
}

// updateFacts are the semantic facts of an update: its entry key, the
// key values it provides (its own match values, per key field), and the
// references it makes (@refers_to values in keys and action params).
type updateFacts struct {
	entryKey         string
	provides, refers []refKey
}

// decompose extracts an update's facts; it reports false for an update
// that does not decode. NextBatch calls it once per candidate update.
func (f *Fuzzer) decompose(u *p4rt.Update) (updateFacts, bool) {
	e, err := p4rt.FromWire(f.info, &u.Entry)
	if err != nil {
		return updateFacts{}, false
	}
	facts := updateFacts{entryKey: e.Key()}
	for _, m := range e.Matches {
		facts.provides = append(facts.provides, mkRefKey(e.Table.Name, m.Key, m.Value.String()))
	}
	collectInv := func(inv *pdpi.ActionInvocation) {
		for i, p := range inv.Action.Params {
			if p.RefersTo != nil && i < len(inv.Args) {
				facts.refers = append(facts.refers, mkRefKey(p.RefersTo.Table, p.RefersTo.Field, inv.Args[i].String()))
			}
		}
	}
	for _, m := range e.Matches {
		if k, found := e.Table.KeyByName(m.Key); found && k.RefersTo != nil {
			facts.refers = append(facts.refers, mkRefKey(k.RefersTo.Table, k.RefersTo.Field, m.Value.String()))
		}
	}
	if e.Action != nil {
		collectInv(e.Action)
	}
	for i := range e.ActionSet {
		collectInv(&e.ActionSet[i].ActionInvocation)
	}
	// A MODIFY also releases the references its old action held, so a
	// batch-mate deleting one of those targets would be order-dependent.
	if u.Type == p4rt.Modify {
		if old, ok := f.installed.Get(e); ok {
			if old.Action != nil {
				collectInv(old.Action)
			}
			for i := range old.ActionSet {
				collectInv(&old.ActionSet[i].ActionInvocation)
			}
		}
	}
	return facts, true
}

// conflicts reports whether an update's validity could depend on the
// execution order of the current batch.
func (t *batchTracker) conflicts(u *updateFacts) bool {
	if t.entryKeys[u.entryKey] {
		return true
	}
	for _, r := range u.refers {
		if t.provided[r] {
			return true
		}
	}
	for _, p := range u.provides {
		if t.referred[p] {
			return true
		}
	}
	return false
}

// note adds an accepted update's facts to the batch.
func (t *batchTracker) note(u *updateFacts) {
	t.entryKeys[u.entryKey] = true
	for _, p := range u.provides {
		t.provided[p] = true
	}
	for _, r := range u.refers {
		t.referred[r] = true
	}
}
