package switchv

import (
	"strings"

	"switchv/internal/oracle"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4rt"
)

// isTransportFailure recognises the response shape p4rt.Client produces
// when an RPC dies in transit (one Internal "transport: ..." status
// standing in for the whole batch): the write may or may not have been
// applied — the classic torn-write ambiguity.
func isTransportFailure(resp p4rt.WriteResponse) bool {
	return len(resp.Statuses) == 1 &&
		resp.Statuses[0].Code == p4rt.Internal &&
		strings.HasPrefix(resp.Statuses[0].Message, "transport:")
}

// reconcileWriteResponse resolves a torn write by read-back: given the
// pre-batch state the oracle last adopted and the post-batch observed
// state, it synthesizes the per-update statuses the switch must have
// produced. An update whose effect is visible in the observed state was
// applied (OK); one whose precondition already failed against the
// pre-batch state was rejected with the specified code (AlreadyExists /
// NotFound); anything else is oracle.UnknownOutcome, which the oracle
// exempts from judgement and replay. This is how a controller
// distinguishes "the ACK was lost but the write landed" from "the write
// never happened".
func reconcileWriteResponse(info *p4info.Info, prev *pdpi.Store, observed p4rt.ReadResponse, req p4rt.WriteRequest) p4rt.WriteResponse {
	// The observed post-batch entries, by key.
	obs := map[string]*pdpi.Entry{}
	for i := range observed.Entries {
		if e, err := p4rt.FromWire(info, &observed.Entries[i]); err == nil {
			obs[e.Key()] = e
		}
	}
	// landed reports whether the observed state holds e exactly, down to
	// every action-set member's arguments.
	landed := func(key string, e *pdpi.Entry) bool {
		got, ok := obs[key]
		return ok && got.Equal(e)
	}
	// Working copy of the pre-batch state, mutated as updates are deemed
	// applied, so in-batch sequences (insert X then delete X is the only
	// ambiguous shape) reconcile in order.
	working := map[string]bool{}
	for _, e := range prev.All(info.Program()) {
		working[e.Key()] = true
	}
	resp := p4rt.WriteResponse{Statuses: make([]p4rt.Status, len(req.Updates))}
	for i := range req.Updates {
		u := &req.Updates[i]
		e, err := p4rt.FromWire(info, &u.Entry)
		if err != nil {
			// Undecodable updates were certainly rejected, but the exact
			// status code is lost with the ACK; UnknownOutcome skips the
			// pinned-code check.
			resp.Statuses[i] = oracle.UnknownOutcome
			continue
		}
		key := e.Key()
		switch u.Type {
		case p4rt.Insert:
			switch {
			case working[key]:
				resp.Statuses[i] = p4rt.Statusf(p4rt.AlreadyExists, "reconciled: entry existed before the batch")
			case landed(key, e):
				resp.Statuses[i] = p4rt.OKStatus
				working[key] = true
			default:
				resp.Statuses[i] = oracle.UnknownOutcome
			}
		case p4rt.Modify:
			switch {
			case !working[key]:
				resp.Statuses[i] = p4rt.Statusf(p4rt.NotFound, "reconciled: no such entry before the batch")
			case landed(key, e):
				resp.Statuses[i] = p4rt.OKStatus
			default:
				resp.Statuses[i] = oracle.UnknownOutcome
			}
		case p4rt.Delete:
			switch {
			case !working[key]:
				resp.Statuses[i] = p4rt.Statusf(p4rt.NotFound, "reconciled: no such entry before the batch")
			case obs[key] == nil:
				resp.Statuses[i] = p4rt.OKStatus
				delete(working, key)
			default:
				resp.Statuses[i] = oracle.UnknownOutcome
			}
		default:
			resp.Statuses[i] = oracle.UnknownOutcome
		}
	}
	return resp
}
