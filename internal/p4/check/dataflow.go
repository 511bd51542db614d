package check

import (
	"sort"
	"strings"

	"switchv/internal/p4/dataflow"
	"switchv/internal/p4/ir"
)

// checkDataflow derives the P4C011–P4C016 findings from the shared
// dataflow analysis (internal/p4/dataflow): bit-granular def-use chains
// plus the header-validity lattice.
func checkDataflow(r *Report, prog *ir.Program) {
	a := dataflow.Cached(prog)

	// P4C011 — metadata read before the first possible write. Standard
	// metadata, synthetic pipeline-state fields and header fields are
	// inputs by definition; only local metadata with a later write is an
	// ordering bug. One finding per field, at its earliest read.
	flagged := map[int]bool{}
	for _, u := range a.Uses {
		f := u.Field
		if !isLocalMetadata(a, f) || flagged[f.ID] {
			continue
		}
		if first, ok := a.FirstDef(f); ok && u.Ord < first {
			flagged[f.ID] = true
			r.addf(CodeUninitializedRead, Warn, f.Name,
				"read (%s in %s) before the first write; the read always sees the zero initialization", u.Kind, u.Control)
		}
	}

	// P4C012 / P4C016 — killed writes: dead stores in apply-block code,
	// conflicting writes inside one action body.
	for _, d := range a.Defs {
		if !d.Killed {
			continue
		}
		if d.Action == "" {
			r.addf(CodeDeadWrite, Warn, d.Field.Name,
				"write in control %s is overwritten before any read; the first value is lost", d.Control)
		} else {
			r.addf(CodeConflictingWrites, Error, d.Action,
				"action writes %s twice with no intervening read; only the last value survives", d.Field.Name)
		}
	}

	// P4C013 — data reads of definitely-invalid header fields. Key reads
	// are covered by the validity-coupling analysis below instead.
	for _, u := range a.Uses {
		f := u.Field
		if u.Kind == dataflow.UseKey || f.Header == "" || f.IsValidity {
			continue
		}
		if u.Validity == dataflow.Invalid && a.Parser.Reachable(f.Header) {
			r.addf(CodeInvalidHeaderRead, Error, f.Name,
				"read (%s in %s) while %s is provably invalid; the value is always zero", u.Kind, u.Control, f.Header)
		}
	}

	// P4C014 — validity-coupled keys: a match on a header field whose
	// validity is open at the apply site, with no validity bit and no
	// parser discriminator among the keys to tell "absent" from "zero".
	for _, t := range prog.Tables {
		if a.Cone(t.Name) == nil {
			continue // never applied; reachability reports that
		}
		for _, k := range t.Keys {
			f := k.Field
			if f.Header == "" || f.IsValidity {
				continue
			}
			if a.ValidityAtApply(t.Name, f.Header) != dataflow.Top {
				continue
			}
			if tableCouplesValidity(a, t, f.Header) {
				continue
			}
			r.addf(CodeValidityCoupledKey, Warn, t.Name,
				"key %q matches %s while %s validity is undetermined and no key couples to it (validity bit or parser discriminator)",
				k.Name, f.Name, f.Header)
		}
	}

	// P4C015 — reads of headers the parser can never produce. One
	// finding per header instance.
	unparsed := map[string]bool{}
	for _, u := range a.Uses {
		h := u.Field.Header
		if h == "" || a.Parser.Reachable(h) || a.SetValidAnywhere(h) {
			continue
		}
		unparsed[h] = true
	}
	headers := make([]string, 0, len(unparsed))
	for h := range unparsed {
		headers = append(headers, h)
	}
	sort.Strings(headers)
	for _, h := range headers {
		r.addf(CodeUnparsedHeader, Error, h,
			"header is read but the parser cannot reach it and nothing sets it valid; its fields are permanently zero")
	}
}

// isLocalMetadata reports whether the field is user metadata: not inside
// a header, not standard metadata, not a synthetic pipeline-state field.
func isLocalMetadata(a *dataflow.Analysis, f *ir.Field) bool {
	if f.Header != "" || f.IsValidity || strings.HasPrefix(f.Name, "$") {
		return false
	}
	if strings.HasPrefix(f.Name, "standard_metadata.") {
		return false
	}
	if p := a.Prog.HeadersPrefix(); p != "" && strings.HasPrefix(f.Name, p+".") {
		return false
	}
	return true
}

// tableCouplesValidity reports whether any key of t pins down the
// header's validity: its $valid bit, or one of the parser discriminator
// fields that select it.
func tableCouplesValidity(a *dataflow.Analysis, t *ir.Table, header string) bool {
	disc := a.Parser.Discriminators(header)
	for _, k := range t.Keys {
		if k.Field.IsValidity && k.Field.Header == header {
			return true
		}
		for _, d := range disc {
			if k.Field == d {
				return true
			}
		}
	}
	return false
}
