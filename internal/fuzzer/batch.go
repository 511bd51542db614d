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

type batchTracker struct {
	entryKeys map[string]bool         // entry keys touched in this batch
	provided  map[pdpi.Reference]bool // key values added/removed by batch updates
	referred  map[pdpi.Reference]bool // references made by batch updates
}

func newBatchTracker() *batchTracker {
	return &batchTracker{
		entryKeys: map[string]bool{},
		provided:  map[pdpi.Reference]bool{},
		referred:  map[pdpi.Reference]bool{},
	}
}

// updateFacts are the semantic facts of an update: its entry key, the
// key values it provides (its own match values, per key field), and the
// references it makes (@refers_to values in keys and action params).
type updateFacts struct {
	entryKey         string
	provides, refers []pdpi.Reference
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
		facts.provides = append(facts.provides, pdpi.Reference{Table: e.Table.Name, Field: m.Key, Value: m.Value})
	}
	refer := func(r pdpi.Reference) bool {
		facts.refers = append(facts.refers, r)
		return true
	}
	e.References(refer)
	// A MODIFY also releases the references its old action held, so a
	// batch-mate deleting one of those targets would be order-dependent.
	// (The old entry's key references are the new entry's.)
	if u.Type == p4rt.Modify {
		if old, ok := f.installed.Get(e); ok {
			old.References(refer)
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
