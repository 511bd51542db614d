// Package fuzzer implements p4-fuzzer (§4): generation of control-plane
// write requests from a P4 model — valid requests built from the P4Info
// schema, and "interestingly invalid" requests derived from valid ones by
// a curated catalog of mutations modeled on the P4Runtime specification
// and historically observed switch bugs.
package fuzzer

import (
	"fmt"
	"math/rand"

	"switchv/internal/coverage"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
	"switchv/internal/p4rt"
)

// Disabled is the sentinel for the *Fraction options meaning "exactly
// zero": Options{MutateFraction: Disabled} runs a pure-valid campaign,
// whereas a literal 0 means "unset, use the default".
const Disabled = -1.0

// Options configures a fuzzing campaign. Like the paper's deployed
// p4-fuzzer (§4.1), generation does not enforce @entry_restriction
// compliance: the oracle judges a non-compliant entry must-reject.
// CoverageGuided is the one option that steers what is generated.
type Options struct {
	// Seed makes runs reproducible.
	Seed int64
	// NumRequests is the number of write batches to generate (paper: 1000).
	NumRequests int
	// UpdatesPerRequest is the approximate batch size (paper: ~50).
	UpdatesPerRequest int
	// MutateFraction is the probability that a generated update is turned
	// invalid via a mutation.
	MutateFraction float64
	// DeleteFraction is the probability of generating a delete (of a
	// previously installed entry) instead of an insert.
	DeleteFraction float64
	// ModifyFraction is the probability of generating a modify of a
	// previously installed entry with fresh action arguments.
	ModifyFraction float64
	// StopAfterIncidents ends the campaign early once this many incidents
	// have been found (0 = run the full campaign). Bug-hunting sweeps use
	// it; nightly validation runs do not.
	StopAfterIncidents int
	// CoverageGuided replaces uniform table/action/mutation picks with
	// energy-weighted draws from the coverage map (greybox feedback):
	// regions the campaign has not exercised yet are scheduled first.
	CoverageGuided bool
	// Coverage is the map consulted and updated by the campaign. New
	// allocates one when nil; campaigns that share coverage across
	// components (e.g. the switchv harness) inject theirs here.
	Coverage *coverage.Map
	// PlateauBatches stops the campaign once this many consecutive
	// batches add no new coverage point (0 = run the full campaign).
	// Enforced by the harness, which observes per-batch deltas.
	PlateauBatches int
}

func (o *Options) setDefaults() {
	if o.NumRequests == 0 {
		o.NumRequests = 1000
	}
	if o.UpdatesPerRequest == 0 {
		o.UpdatesPerRequest = 50
	}
	// 0 means "unset" for the fractions; Disabled (negative) means an
	// explicit zero, so pure-valid or delete-free campaigns are possible.
	frac := func(v *float64, def float64) {
		switch {
		case *v == 0:
			*v = def
		case *v < 0:
			*v = 0
		}
	}
	frac(&o.MutateFraction, 0.3)
	frac(&o.DeleteFraction, 0.15)
	frac(&o.ModifyFraction, 0.1)
}

// GeneratedUpdate is one fuzzed update with its generation metadata.
type GeneratedUpdate struct {
	Update p4rt.Update
	// Mutation names the applied mutation, or "" for intended-valid
	// updates. Note that intended-valid updates may still be invalid:
	// generation does not enforce @entry_restriction compliance (§4.1),
	// so tables with constraints frequently receive invalid entries.
	Mutation string
}

// Fuzzer generates control-plane updates for one model.
type Fuzzer struct {
	info *p4info.Info
	rng  *rand.Rand
	opts Options

	// installed mirrors what the fuzzer believes is on the switch, so
	// valid updates can reference previously installed entries (§4.4) and
	// deletes can target real entries.
	installed *pdpi.Store

	// ranks orders tables so that referenced tables come first (see
	// p4info.Ranks).
	ranks map[string]int

	deferred []GeneratedUpdate // updates deferred to later batches

	// cov is always non-nil (campaigns account coverage even when blind);
	// guide is non-nil only under Options.CoverageGuided.
	cov   *coverage.Map
	guide *coverage.Guide

	// Stats.
	Generated    int
	MutatedCount int
	PerMutation  map[string]int
}

// New returns a fuzzer for the model.
func New(info *p4info.Info, opts Options) *Fuzzer {
	opts.setDefaults()
	if opts.Coverage == nil {
		opts.Coverage = coverage.NewMap(info)
	}
	f := &Fuzzer{
		info:        info,
		rng:         rand.New(rand.NewSource(opts.Seed)),
		opts:        opts,
		installed:   pdpi.NewStore(),
		ranks:       info.Ranks(),
		PerMutation: map[string]int{},
		cov:         opts.Coverage,
	}
	for _, name := range MutationNames() {
		f.cov.Register(coverage.KeyMutation(name))
	}
	if opts.CoverageGuided {
		f.guide = coverage.NewGuide(f.cov)
	}
	return f
}

// TableRank returns the dependency rank of a table (0 = no dependencies).
func (f *Fuzzer) TableRank(name string) int { return f.ranks[name] }

// randValue picks a biased random value: boundary values are
// overrepresented because they historically find bugs.
func (f *Fuzzer) randValue(width int) value.V {
	switch f.rng.Intn(6) {
	case 0:
		return value.Zero(width)
	case 1:
		return value.New(1, width)
	case 2:
		return value.Ones(width)
	default:
		return value.New128(f.rng.Uint64(), f.rng.Uint64(), width)
	}
}

// refValue picks a value for a @refers_to field: usually an existing
// referenced entry's key value (so the reference is valid), falling back
// to a random value when the referenced table is empty.
func (f *Fuzzer) refValue(ref *ir.Reference, width int) value.V {
	entries := f.installed.Entries(ref.Table)
	if len(entries) > 0 {
		e := entries[f.rng.Intn(len(entries))]
		if m, ok := e.Match(ref.Field); ok {
			return m.Value.WithWidth(width)
		}
	}
	return f.randValue(width)
}

// GenerateEntry builds an intended-valid semantic entry for the table.
func (f *Fuzzer) GenerateEntry(t *ir.Table) (*pdpi.Entry, error) {
	e := &pdpi.Entry{Table: t}
	for _, k := range t.Keys {
		w := k.Field.Width
		var m pdpi.Match
		m.Key = k.Name
		m.Kind = k.Match
		switch k.Match {
		case ir.MatchExact:
			if k.RefersTo != nil {
				m.Value = f.refValue(k.RefersTo, w)
			} else {
				m.Value = f.randValue(w)
			}
		case ir.MatchLPM:
			plen := f.rng.Intn(w + 1)
			mask := value.PrefixMask(plen, w)
			m.Value = f.randValue(w).And(mask)
			m.PrefixLen = plen
		case ir.MatchTernary:
			// Ternary and optional keys are omitted sometimes.
			if f.rng.Intn(2) == 0 {
				continue
			}
			mask := f.randValue(w)
			if mask.IsZero() {
				mask = value.Ones(w)
			}
			m.Mask = mask
			m.Value = f.randValue(w).And(mask)
		case ir.MatchOptional:
			if f.rng.Intn(2) == 0 {
				continue
			}
			if k.Field.Width == 1 {
				// Validity-bit keys: matching "1" is what entries mean.
				m.Value = value.New(1, 1)
			} else {
				m.Value = f.randValue(w)
			}
		}
		e.Matches = append(e.Matches, m)
	}
	if pdpi.NeedsPriority(t) {
		e.Priority = int32(1 + f.rng.Intn(100))
	}

	pickInvocation := func() (*pdpi.ActionInvocation, error) {
		if len(t.Actions) == 0 {
			return nil, fmt.Errorf("fuzzer: table %s has no actions", t.Name)
		}
		var a *ir.Action
		if f.guide != nil {
			a = f.guide.PickAction(f.rng, t)
		} else {
			a = t.Actions[f.rng.Intn(len(t.Actions))]
		}
		inv := &pdpi.ActionInvocation{Action: a}
		for _, p := range a.Params {
			if p.RefersTo != nil {
				inv.Args = append(inv.Args, f.refValue(p.RefersTo, p.Width))
			} else {
				inv.Args = append(inv.Args, f.randValue(p.Width))
			}
		}
		return inv, nil
	}

	if t.IsSelector {
		n := 1 + f.rng.Intn(4)
		for i := 0; i < n; i++ {
			inv, err := pickInvocation()
			if err != nil {
				return nil, err
			}
			e.ActionSet = append(e.ActionSet, pdpi.WeightedAction{
				ActionInvocation: *inv,
				Weight:           1 + f.rng.Intn(10),
			})
		}
	} else {
		inv, err := pickInvocation()
		if err != nil {
			return nil, err
		}
		e.Action = inv
	}
	return e, nil
}

// GenerateUpdate produces one update: an insert of a fresh entry, a delete
// of an installed one, or a mutated (invalid) variant of either.
func (f *Fuzzer) GenerateUpdate() (GeneratedUpdate, error) {
	t := f.pickTable()
	f.Generated++

	// Deletes and modifies target entries we believe are installed.
	if r := f.rng.Float64(); r < f.opts.DeleteFraction+f.opts.ModifyFraction {
		if e := f.randomInstalled(); e != nil {
			typ := p4rt.Delete
			if r >= f.opts.DeleteFraction {
				typ = p4rt.Modify
				// Re-roll the action (fresh arguments) on the same match.
				e = e.Clone()
				if fresh, err := f.GenerateEntry(e.Table); err == nil {
					e.Action = fresh.Action
					e.ActionSet = fresh.ActionSet
				}
			}
			f.cov.NoteWrite(e.Table.Name)
			upd := p4rt.Update{Type: typ, Entry: p4rt.ToWire(e)}
			gu := GeneratedUpdate{Update: upd}
			if f.rng.Float64() < f.opts.MutateFraction {
				gu = f.mutate(gu)
			}
			return gu, nil
		}
	}

	e, err := f.GenerateEntry(t)
	if err != nil {
		return GeneratedUpdate{}, err
	}
	f.cov.NoteWrite(t.Name)
	gu := GeneratedUpdate{Update: p4rt.Update{Type: p4rt.Insert, Entry: p4rt.ToWire(e)}}
	if f.rng.Float64() < f.opts.MutateFraction {
		gu = f.mutate(gu)
	}
	return gu, nil
}

// pickTable chooses a table, weighted toward low-rank (dependency-free)
// tables early in the campaign so references can be satisfied.
func (f *Fuzzer) pickTable() *ir.Table {
	tables := f.info.Tables()
	// Prefer tables whose dependencies already have installed entries.
	var ready []*ir.Table
	for _, t := range tables {
		ok := true
		for _, dep := range f.info.Dependencies(t) {
			if f.installed.TableLen(dep) == 0 {
				ok = false
				break
			}
		}
		if ok {
			ready = append(ready, t)
		}
	}
	if len(ready) == 0 || f.rng.Intn(10) == 0 {
		if f.guide != nil {
			return f.guide.PickTable(f.rng, tables)
		}
		return tables[f.rng.Intn(len(tables))]
	}
	if f.guide != nil {
		return f.guide.PickTable(f.rng, ready)
	}
	return ready[f.rng.Intn(len(ready))]
}

// randomInstalled picks an installed entry uniformly: the i-th entry of
// Store.All in program table order, located table by table without
// building that slice.
func (f *Fuzzer) randomInstalled() *pdpi.Entry {
	tables := f.info.Program().Tables
	n := 0
	for _, t := range tables {
		n += f.installed.TableLen(t.Name)
	}
	if n == 0 {
		return nil
	}
	i := f.rng.Intn(n)
	for _, t := range tables {
		rows := f.installed.Entries(t.Name)
		if i < len(rows) {
			return rows[i]
		}
		i -= len(rows)
	}
	return nil
}

// NoteAccepted records that the switch accepted an update, keeping the
// reference pool in sync and crediting the coverage map: the table gets
// an accept, and (for inserts/modifies) every programmed action gets a
// select, which is what the guide's action energy decays on.
func (f *Fuzzer) NoteAccepted(u p4rt.Update) {
	e, err := p4rt.FromWire(f.info, &u.Entry)
	if err != nil {
		return
	}
	f.cov.NoteAccept(e.Table.Name)
	if u.Type != p4rt.Delete {
		if e.Action != nil {
			f.cov.NoteActionSelect(e.Table.Name, e.Action.Action.Name)
		}
		for i := range e.ActionSet {
			f.cov.NoteActionSelect(e.Table.Name, e.ActionSet[i].Action.Name)
		}
	}
	switch u.Type {
	case p4rt.Insert:
		_ = f.installed.Insert(e)
	case p4rt.Modify:
		_ = f.installed.Modify(e)
	case p4rt.Delete:
		_ = f.installed.Delete(e)
	}
}
