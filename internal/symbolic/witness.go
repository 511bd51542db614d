// Solver-free witness synthesis (ROADMAP item 3): most table goals on
// realistic entry sets are pairwise-disjoint exact/LPM/ternary matches,
// so model-reuse pruning can never absorb them — each would pay a full
// SMT check. But their reachability reduces to key arithmetic: a packet
// hits entry E of table T iff its key values satisfy E's match while
// escaping every higher-precedence entry. That predicate is computed
// here as a per-table BDD over the key bits (handling correlated and
// shadowed prefixes exactly, not just the common disjoint case), a
// candidate key assignment is read off deterministically (MinSat), and
// the candidate is grafted onto a previously-found seed model. The
// grafted model is confirmed end-to-end by concrete evaluation of the
// goal's full path condition plus every solver assertion (smt.EvalBool
// over the hash-consed DAG) — a confirmed witness is a genuine model of
// the formula, so the goal's SMT check is skipped entirely. Any failure
// falls back to the solver, so verdicts are identical to the solver path
// by construction: the witness layer only ever skips work, never
// changes an answer.
//
// The pre-pass runs sequentially on the shard-0 executor before
// sharding, so its results are independent of the worker count and the
// simulation engine, preserving the generator's determinism contract.
package symbolic

import (
	"switchv/internal/bdd"
	"switchv/internal/p4/dataflow"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
	"switchv/internal/smt"
)

// maxWitnessSeeds bounds each table's seed-model pool. Seeds capture
// distinct pipeline contexts (VRF assignments, parse states); a handful
// per table suffices because each solver fallback on that table
// contributes its model as a fresh seed. Pools are per table so an
// early table's context diversity cannot starve a later one (an IPv6
// route goal needs an IPv6-parsed seed, which no IPv4 goal provides).
const maxWitnessSeeds = 16

// keySlot is one key field of a witnessed table: its bit range in the
// table's BDD, the symbolic expression it is matched against, and
// whether a candidate model can set it directly.
type keySlot struct {
	key   ir.KeyField
	off   int       // first BDD variable (MSB) of this key
	state *smt.Term // symbolic key expression at first application
	// patchable keys are matched against their raw input variable (no
	// pipeline rewrite before the table) and are not validity bits. A
	// table needs one to be witnessable, and a patchable ingress port
	// carries the MaxPort range constraint.
	patchable bool
	// raw keys are matched against their raw input variable, validity
	// bits included: synthFree assigns them directly and repairs the
	// parser context around them.
	raw bool
}

// tableWitness is the per-table BDD precedence model: base[goalKey] is
// the exact condition over the key bits under which that entry (or the
// default action) is selected — its match, minus every higher-precedence
// match, mirroring applyTable's guard construction entry for entry.
type tableWitness struct {
	bld    *bdd.Builder
	slots  []keySlot
	global bdd.Node // range constraints (ingress port < MaxPort)
	base   map[string]bdd.Node
	// ps is the static parser model; coupled is the parser-consistency
	// constraint over the slots (validity bits follow their EtherType /
	// protocol discriminators), conjoined by synthFree so MinSat never
	// proposes an unparseable context.
	ps      *dataflow.Parser
	coupled bdd.Node
}

// newTableWitness builds the witness model for a table, or nil when the
// table is not witnessable (never applied, or no patchable key — its
// selection then depends entirely on upstream pipeline state, which key
// arithmetic cannot steer).
func newTableWitness(ex *Executor, t *ir.Table) *tableWitness {
	ks, ok := ex.keyState[t.Name]
	if !ok {
		return nil
	}
	slots := make([]keySlot, len(t.Keys))
	total, anyPatch := 0, false
	for i, k := range t.Keys {
		raw := ks[i] == ex.inputs[k.Field.ID]
		patchable := raw && !k.Field.IsValidity
		slots[i] = keySlot{key: k, off: total, state: ks[i], patchable: patchable, raw: raw}
		total += k.Field.Width
		anyPatch = anyPatch || patchable
	}
	if !anyPatch {
		return nil
	}
	bld := bdd.New(total)
	global := bdd.True
	for _, s := range slots {
		if s.patchable && s.key.Field.Name == ir.FieldIngressPort {
			bits := make([]int, s.key.Field.Width)
			for j := range bits {
				bits[j] = s.off + j
			}
			global = bld.And(global, bld.LtConst(bits, uint64(ex.opts.MaxPort)))
		}
	}
	tw := &tableWitness{bld: bld, slots: slots, global: global, base: map[string]bdd.Node{},
		ps: dataflow.ParserOf(ex.prog)}
	tw.coupled = tw.couplingNode(ex)
	notHigher := bdd.True
	for _, e := range orderEntries(t, ex.store) {
		m := tw.matchNode(e)
		tw.base[TraceKeyEntry(t.Name, e)] = bld.And(notHigher, m)
		notHigher = bld.And(notHigher, bld.Not(m))
	}
	tw.base[TraceKeyDefault(t.Name)] = notHigher
	return tw
}

// slotFor returns the slot matching on the given field (nil when the
// field is not a key of this table or f is nil).
func (tw *tableWitness) slotFor(f *ir.Field) *keySlot {
	if f == nil {
		return nil
	}
	for i := range tw.slots {
		if tw.slots[i].key.Field == f {
			return &tw.slots[i]
		}
	}
	return nil
}

// validitySlotFor returns the raw slot on the header's $valid bit, if any.
func (tw *tableWitness) validitySlotFor(header string) *keySlot {
	for i := range tw.slots {
		s := &tw.slots[i]
		if s.raw && s.key.Field.IsValidity && s.key.Field.Header == header {
			return s
		}
	}
	return nil
}

// eqSlotConst constrains the slot's bits to a constant value.
func (tw *tableWitness) eqSlotConst(s *keySlot, v uint64) bdd.Node {
	w := s.key.Field.Width
	return tw.eqBits(s.off, w, value.New(v, w), value.PrefixMask(w, w))
}

// nonZero is the condition that the slot's bits are not all zero.
func (tw *tableWitness) nonZero(s *keySlot) bdd.Node {
	return tw.bld.Not(tw.eqSlotConst(s, 0))
}

// slotVal reads the slot's assigned value off a MinSat assignment.
func (tw *tableWitness) slotVal(s *keySlot, assign []bool) value.V {
	w := s.key.Field.Width
	v := value.Zero(w)
	for j := 0; j < w; j++ {
		if assign[s.off+(w-1-j)] {
			v = v.SetBit(j, true)
		}
	}
	return v
}

// couplingNode builds the parser-consistency constraints over the
// table's slots, mirroring assertParserAxioms at the BDD level:
//
//   - candidates stay untagged (EtherType != 0x8100) when the program
//     has a VLAN header, so the raw EtherType is the effective one;
//   - a header's validity slot holds iff the EtherType slot selects it,
//     and at most one L3 validity slot holds;
//   - a nonzero header-field slot requires its header parsed: its
//     validity slot (or EtherType selection) for L3 fields, the right
//     ipv4.protocol slot value for L4 fields.
//
// The constraints only prune candidates MinSat would otherwise propose
// and confirm() would reject; they are deliberately over-strict (e.g.
// no VLAN-tagged or IPv6-carried-L4 witnesses) — goals needing those
// contexts fall back to the solver.
func (tw *tableWitness) couplingNode(ex *Executor) bdd.Node {
	ps := tw.ps
	prefix := ps.Prefix
	if prefix == "" {
		return bdd.True
	}
	bld := tw.bld
	cons := bdd.True
	etherField, _ := ex.prog.FieldByName(prefix + ".ethernet.ether_type")
	etherSlot := tw.slotFor(etherField)
	if etherSlot != nil && !etherSlot.raw {
		etherSlot = nil
	}
	if etherSlot != nil && ps.Reachable(prefix+".vlan") {
		cons = bld.And(cons, bld.Not(tw.eqSlotConst(etherSlot, 0x8100)))
	}
	var l3Validity []*keySlot
	for i := range tw.slots {
		s := &tw.slots[i]
		f := s.key.Field
		if !f.IsValidity || !s.raw {
			continue
		}
		spec, ok := ps.Spec(f.Header)
		if !ok || spec.Role != dataflow.RoleL3 {
			continue
		}
		for _, prev := range l3Validity {
			cons = bld.And(cons, bld.Not(bld.And(bld.Var(s.off), bld.Var(prev.off))))
		}
		l3Validity = append(l3Validity, s)
		if etherSlot != nil {
			cons = bld.And(cons, bld.Iff(bld.Var(s.off), tw.eqSlotConst(etherSlot, spec.EtherType)))
		}
	}
	protoField, _ := ex.prog.FieldByName(prefix + ".ipv4.protocol")
	protoSlot := tw.slotFor(protoField)
	if protoSlot != nil && !protoSlot.raw {
		protoSlot = nil
	}
	for i := range tw.slots {
		s := &tw.slots[i]
		f := s.key.Field
		if f.IsValidity || f.Header == "" || !s.raw {
			continue
		}
		spec, ok := ps.Spec(f.Header)
		if !ok {
			continue
		}
		var need bdd.Node
		have := false
		switch spec.Role {
		case dataflow.RoleL3:
			if vs := tw.validitySlotFor(f.Header); vs != nil {
				need, have = bld.Var(vs.off), true
			} else if etherSlot != nil {
				need, have = tw.eqSlotConst(etherSlot, spec.EtherType), true
			}
		case dataflow.RoleL4:
			if protoSlot != nil && protoSlot != s && spec.Proto >= 0 {
				// proto != 0 implies ipv4 parsed via proto's own L3 rule.
				need, have = tw.eqSlotConst(protoSlot, uint64(spec.Proto)), true
			}
		}
		if have {
			cons = bld.And(cons, bld.Implies(tw.nonZero(s), need))
		}
	}
	return cons
}

// matchNode lowers an entry's match to the key-bit BDD, mirroring
// Executor.matchCond: exact/optional pin every bit, LPM pins the top
// PrefixLen bits, ternary pins the mask's bits, absent matches are
// unconstrained, and an unknown key never matches.
func (tw *tableWitness) matchNode(e *pdpi.Entry) bdd.Node {
	cond := bdd.True
	for i := range e.Matches {
		m := &e.Matches[i]
		var slot *keySlot
		for j := range tw.slots {
			if tw.slots[j].key.Name == m.Key {
				slot = &tw.slots[j]
				break
			}
		}
		if slot == nil {
			return bdd.False
		}
		w := slot.key.Field.Width
		switch m.Kind {
		case ir.MatchExact, ir.MatchOptional:
			cond = tw.bld.And(cond, tw.eqBits(slot.off, w, m.Value, value.PrefixMask(w, w)))
		case ir.MatchLPM:
			mask := value.PrefixMask(m.PrefixLen, w)
			cond = tw.bld.And(cond, tw.eqBits(slot.off, w, m.Value.And(mask), mask))
		case ir.MatchTernary:
			cond = tw.bld.And(cond, tw.eqBits(slot.off, w, m.Value.And(m.Mask), m.Mask))
		}
	}
	return cond
}

// eqBits constrains the masked bits of the key at off (width w, BDD
// variables MSB-first) to the value's bits.
func (tw *tableWitness) eqBits(off, w int, v, mask value.V) bdd.Node {
	cond := bdd.True
	for j := 0; j < w; j++ { // j indexes value bits, LSB first
		if !mask.Bit(j) {
			continue
		}
		vi := off + (w - 1 - j)
		if v.Bit(j) {
			cond = tw.bld.And(cond, tw.bld.Var(vi))
		} else {
			cond = tw.bld.And(cond, tw.bld.NVar(vi))
		}
	}
	return cond
}

// synthFree reads the deterministic minimum satisfying key assignment
// off the goal's BDD and grafts it onto the seed, returning the
// candidate model (nil when no assignment exists or none repairs).
// Every raw slot — validity bits included — is free, the
// parser-coupling constraints keep MinSat's proposal parseable, and the
// candidate is completed by (a) deterministically repairing the
// non-slot parser inputs around the assignment (EtherType, L4
// validities, zeroed invalid headers) and (b) steering each pinned
// slot's Ite spine to the raw input that feeds it under the repaired
// context. Every selector-choice variable is pinned to member 0 —
// always a valid choice — because the seed only constrained the
// choices of entries it fired, and the candidate may fire different
// ones. Nothing here is trusted: confirm() rejects any repair or
// steering miss, so mistakes cost a solver call, never a wrong verdict.
func (tw *tableWitness) synthFree(ex *Executor, seed *smt.Model, node bdd.Node) *smt.Model {
	assign, ok := tw.bld.MinSat(tw.bld.And(node, tw.coupled))
	if !ok {
		return nil
	}
	patch := map[*smt.Term]value.V{}
	for _, c := range ex.choiceVars {
		patch[c] = value.Zero(c.Width())
	}
	for i := range tw.slots {
		s := &tw.slots[i]
		if s.raw {
			patch[ex.inputs[s.key.Field.ID]] = tw.slotVal(s, assign)
		}
	}
	if !tw.repair(ex, seed, patch, assign) {
		return nil
	}
	for i := range tw.slots {
		s := &tw.slots[i]
		if s.raw {
			continue
		}
		want := tw.slotVal(s, assign)
		cand := seed.WithVars(patch)
		if smt.Eval(cand, s.state).WithWidth(want.Width).Equal(want) {
			continue
		}
		steer(cand, s.state, want, patch)
	}
	return seed.WithVars(patch)
}

// repair rewrites the candidate's raw parser inputs so the slot
// assignment is parser-consistent: it picks the L3 context the
// assignment implies (validity slots > EtherType slot > nonzero L3
// field slots), sets the EtherType and the chain's validity bits for
// it, recomputes the L4/inner validities from the final discriminator
// values, and zeroes every field of every header that ends up invalid
// (the axioms force invalid headers to read as zero). Returns false
// when the assignment is irreparable — a nonzero value pinned inside an
// invalid header.
func (tw *tableWitness) repair(ex *Executor, seed *smt.Model, patch map[*smt.Term]value.V, assign []bool) bool {
	ps := tw.ps
	prefix := ps.Prefix
	if prefix == "" {
		return true
	}
	input := func(name string) *smt.Term {
		if f, ok := ex.prog.FieldByName(name); ok {
			return ex.inputs[f.ID]
		}
		return nil
	}
	cur := func(t *smt.Term) value.V {
		if v, ok := patch[t]; ok {
			return v
		}
		return smt.Eval(seed, t)
	}
	ether := input(prefix + ".ethernet.ether_type")
	etherField, _ := ex.prog.FieldByName(prefix + ".ethernet.ether_type")
	etherSlot := tw.slotFor(etherField)
	if etherSlot != nil && !etherSlot.raw {
		etherSlot = nil
	}

	// Decide the L3 context implied by the assignment.
	want := "" // L3 header (short name) to parse; "" = plain L2
	determined := false
	for i := range tw.slots {
		s := &tw.slots[i]
		f := s.key.Field
		if !f.IsValidity || !s.raw {
			continue
		}
		if spec, ok := ps.Spec(f.Header); ok && spec.Role == dataflow.RoleL3 {
			determined = true
			if want == "" && !tw.slotVal(s, assign).Equal(value.Zero(1)) {
				want = spec.Name
			}
		}
	}
	var etherVal uint64
	switch {
	case etherSlot != nil:
		determined = true
		etherVal = tw.slotVal(etherSlot, assign).Uint64()
		for _, spec := range ps.Chain() {
			if spec.Role == dataflow.RoleL3 && spec.EtherType == etherVal {
				want = spec.Name
			}
		}
	case determined:
		if want != "" {
			if spec, ok := ps.Spec(prefix + "." + want); ok {
				etherVal = spec.EtherType
			}
		}
		if ether != nil {
			patch[ether] = value.New(etherVal, ether.Width())
		}
	default:
		// No explicit context choice: a nonzero L3 field assignment
		// still forces its header parsed.
		for i := range tw.slots {
			s := &tw.slots[i]
			f := s.key.Field
			if f.IsValidity || f.Header == "" || !s.raw {
				continue
			}
			spec, ok := ps.Spec(f.Header)
			if !ok || spec.Role != dataflow.RoleL3 {
				continue
			}
			if !tw.slotVal(s, assign).Equal(value.Zero(f.Width)) {
				want, determined = spec.Name, true
				etherVal = spec.EtherType
				break
			}
		}
		if determined && ether != nil {
			patch[ether] = value.New(etherVal, ether.Width())
		}
	}

	if determined {
		for _, spec := range ps.Chain() {
			var v bool
			switch spec.Role {
			case dataflow.RoleEthernet:
				v = true
			case dataflow.RoleVlan:
				v = etherVal == spec.EtherType
			case dataflow.RoleL3:
				v = spec.Name == want
			default:
				continue // L4/inner recomputed below
			}
			if vt := input(prefix + "." + spec.Name + ".$valid"); vt != nil {
				b := value.Zero(1)
				if v {
					b = value.New(1, 1)
				}
				patch[vt] = b
			}
		}
	}

	// Recompute the L4 and inner validities whenever the context or a
	// protocol discriminator changed under our feet.
	protoT := input(prefix + ".ipv4.protocol")
	v6T := input(prefix + ".ipv6.next_header")
	_, protoPatched := patch[protoT]
	_, v6Patched := patch[v6T]
	if determined || protoPatched || v6Patched {
		headerValid := func(name string) bool {
			vt := input(prefix + "." + name + ".$valid")
			return vt != nil && !cur(vt).Equal(value.Zero(1))
		}
		v4, v6 := headerValid("ipv4"), headerValid("ipv6")
		var proto, v6n uint64
		if v4 && protoT != nil {
			proto = cur(protoT).Uint64()
		}
		if v6 && v6T != nil {
			v6n = cur(v6T).Uint64()
		}
		greValid := false
		for _, spec := range ps.Chain() {
			var v bool
			switch spec.Role {
			case dataflow.RoleL4:
				v = (v4 && spec.Proto >= 0 && proto == uint64(spec.Proto)) ||
					(v6 && spec.V6Next >= 0 && v6n == uint64(spec.V6Next))
				if spec.Name == "gre" {
					greValid = v
				}
			case dataflow.RoleInner:
				gp := input(prefix + ".gre.protocol")
				v = greValid && gp != nil && cur(gp).Uint64() == 0x0800
			default:
				continue
			}
			if vt := input(prefix + "." + spec.Name + ".$valid"); vt != nil {
				b := value.Zero(1)
				if v {
					b = value.New(1, 1)
				}
				patch[vt] = b
			}
		}
	}

	// Axiom compliance: every field of every invalid chain header reads
	// as zero. A nonzero assignment inside one is irreparable.
	for _, spec := range ps.Chain() {
		hpath := prefix + "." + spec.Name
		vt := input(hpath + ".$valid")
		if vt == nil || !cur(vt).Equal(value.Zero(1)) {
			continue
		}
		for _, f := range ex.prog.Fields {
			if f.Header != hpath || f.IsValidity {
				continue
			}
			t := ex.inputs[f.ID]
			if v, ok := patch[t]; ok && !v.Equal(value.Zero(f.Width)) {
				return false
			}
			patch[t] = value.Zero(f.Width)
		}
	}
	return true
}

// steer patches the raw input at the end of the state term's Ite spine
// (evaluated under the candidate so far) so the pinned key evaluates to
// want. Best-effort: a spine that ends in anything but a variable, or a
// conflicting earlier patch, leaves the slot alone — confirm() rejects
// the candidate if those bits mattered.
func steer(cand *smt.Model, state *smt.Term, want value.V, patch map[*smt.Term]value.V) {
	t := state
	for {
		switch t.Op() {
		case smt.OpIte:
			if smt.EvalBool(cand, t.Kid(0)) {
				t = t.Kid(1)
			} else {
				t = t.Kid(2)
			}
		case smt.OpBVZext, smt.OpBVTrunc:
			t = t.Kid(0)
		case smt.OpBVVar:
			w := want.WithWidth(t.Width())
			if v, ok := patch[t]; ok && !v.Equal(w) {
				return
			}
			patch[t] = w
			return
		default:
			return
		}
	}
}

// zeroSeed is the canonical background context: an untagged all-zero L2
// frame (only ethernet valid, EtherType 0 selecting no L3 header). It
// satisfies the parser axioms of every chain shape, so the witness
// layer can synthesize from it before any solver model exists — tables
// whose goals all repair cleanly never pay a single check.
func zeroSeed(ex *Executor) *smt.Model {
	vars := map[*smt.Term]value.V{}
	ps := dataflow.ParserOf(ex.prog)
	if ps.Prefix != "" {
		if f, ok := ex.prog.FieldByName(ps.Prefix + ".ethernet.$valid"); ok {
			vars[ex.inputs[f.ID]] = value.New(1, 1)
		}
	}
	return smt.NewModel(vars)
}

// witnessPass drives the solver-free pre-pass over the goal universe.
type witnessPass struct {
	ex     *Executor
	tables map[string]*tableWitness
	seeds  map[string][]*smt.Model // per-table seed pools
}

// confirm checks that a candidate model genuinely models the executor's
// formula and the goal condition: the goal's full path condition first
// (cheapest to fail), then every assertion the executor ever made
// (parser axioms, selector constraints). A confirmed candidate is
// indistinguishable from a solver model.
func (w *witnessPass) confirm(cand *smt.Model, cond *smt.Term) bool {
	if !smt.EvalBool(cand, cond) {
		return false
	}
	for _, a := range w.ex.solver.AssertedTerms() {
		if !smt.EvalBool(cand, a) {
			return false
		}
	}
	return true
}

// witnessPrepass decides table goals without the solver where possible,
// running sequentially on the shard-0 executor. For each undecided goal
// on a witnessable table it tries, in order: (1) BDD unsatisfiability of
// the goal's key condition (unreachable, zero checks); (2) a synthesized
// candidate per seed, confirmed by concrete evaluation (covered, zero
// checks); (3) the solver (one check — and its SAT model both prunes
// remaining goals and joins the seed pool, teaching the witness layer a
// new pipeline context). Confirmed witnesses prune remaining goals
// exactly like solver models. Decided goals are recorded in
// outcomes/decided in place.
func (g *Generator) witnessPrepass(decided []bool, outcomes []goalOutcome) error {
	w := &witnessPass{ex: g.ex0, tables: map[string]*tableWitness{}, seeds: map[string][]*smt.Model{}}
	zero := zeroSeed(g.ex0)
	claim := func(self int, m *smt.Model, pkt *TestPacket) {
		for j := range g.goals {
			if decided[j] || j == self {
				continue
			}
			if smt.EvalBool(m, g.goals[j].Cond) {
				decided[j] = true
				outcomes[j] = goalOutcome{
					pkt: &TestPacket{GoalKey: g.goals[j].Key, Port: pkt.Port, Data: pkt.Data},
					how: byPrune,
				}
			}
		}
	}
	for i := range g.goals {
		if decided[i] {
			continue
		}
		goal := g.goals[i]
		tname := goalTable(goal.Key)
		if tname == "" {
			continue
		}
		tw, seen := w.tables[tname]
		if !seen {
			if t, ok := g.prog.TableByName(tname); ok {
				tw = newTableWitness(g.ex0, t)
			}
			w.tables[tname] = tw
		}
		if tw == nil {
			continue
		}
		node, ok := tw.base[goal.Key]
		if !ok {
			continue
		}
		node = tw.bld.And(node, tw.global)
		if node == bdd.False {
			// No key assignment selects this entry (fully shadowed by
			// higher-precedence entries): unreachable without a check.
			decided[i] = true
			outcomes[i] = goalOutcome{how: byWitnessUnsat}
			continue
		}
		var cand *smt.Model
		for _, seed := range append([]*smt.Model{zero}, w.seeds[tname]...) {
			if m := tw.synthFree(g.ex0, seed, node); m != nil && w.confirm(m, goal.Cond) {
				cand = m
				break
			}
		}
		if cand != nil {
			pkt, err := g.ex0.packetFrom(cand.Var, goal.Key)
			if err != nil {
				return err
			}
			decided[i] = true
			outcomes[i] = goalOutcome{pkt: pkt, how: byWitness}
			claim(i, cand, pkt)
			continue
		}
		// Fallback ladder bottom: the solver (slice-restricted unless
		// disabled). Its model seeds future witnesses, so each genuinely
		// new pipeline context costs one check and then amortizes across
		// the rest of its table.
		pkt, model, err := g.ex0.solve(goal, !g.gopts.DisableSlicing)
		if err != nil {
			return err
		}
		decided[i] = true
		if pkt == nil {
			outcomes[i] = goalOutcome{how: bySolve}
			continue
		}
		outcomes[i] = goalOutcome{pkt: pkt, how: bySolve}
		if len(w.seeds[tname]) < maxWitnessSeeds {
			w.seeds[tname] = append(w.seeds[tname], model)
		}
		claim(i, model, pkt)
	}
	return nil
}
