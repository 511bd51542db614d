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
	for _, e := range ex.store.Ordered(t) {
		m := tw.matchNode(t, e)
		tw.base[TraceKeyEntry(t.Name, e)] = bld.And(notHigher, m)
		notHigher = bld.And(notHigher, bld.Not(m))
	}
	tw.base[TraceKeyDefault(t.Name)] = notHigher
	return tw
}

// rawSlot returns the raw slot matching on the named header field (nil
// when the table has none).
func (tw *tableWitness) rawSlot(ex *Executor, name string) *keySlot {
	f, ok := ex.prog.HeaderField(name)
	for i := range tw.slots {
		if s := &tw.slots[i]; ok && s.raw && s.key.Field == f {
			return s
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
	return tw.eqBits(s.off, w, value.New(v, w), value.Ones(w))
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
// table's slots, mirroring assertParserAxioms at the BDD level. A
// candidate takes each header's first selector (dataflow.Spec.Select):
//
//   - candidates stay untagged when the program has a VLAN header: the
//     EtherType slot never selects the tag, so it is the effective one;
//   - a header's validity slot holds iff the EtherType slot selects it,
//     and at most one L3 validity slot holds;
//   - a nonzero header-field slot requires its header parsed: its
//     validity slot (or EtherType selection) for L3 fields, the right
//     IPv4 protocol slot value for L4 fields.
//
// The constraints only prune candidates MinSat would otherwise propose
// and confirm() would reject; they are deliberately over-strict (e.g.
// no VLAN-tagged or IPv6-carried-L4 witnesses) — goals needing those
// contexts fall back to the solver.
func (tw *tableWitness) couplingNode(ex *Executor) bdd.Node {
	ps, bld := tw.ps, tw.bld
	cons := bdd.True
	for _, spec := range ps.Chain() {
		if spec.Role != dataflow.RoleVlan {
			continue
		}
		sel := spec.Select[0]
		if es := tw.rawSlot(ex, sel.Field); es != nil {
			cons = bld.And(cons, bld.Not(tw.eqSlotConst(es, sel.Value)))
		}
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
		sel := spec.Select[0]
		if es := tw.rawSlot(ex, sel.Field); es != nil {
			cons = bld.And(cons, bld.Iff(bld.Var(s.off), tw.eqSlotConst(es, sel.Value)))
		}
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
			} else if es := tw.rawSlot(ex, spec.Select[0].Field); es != nil {
				need, have = tw.eqSlotConst(es, spec.Select[0].Value), true
			}
		case dataflow.RoleL4:
			// A nonzero protocol value implies its IP header parsed via
			// that header's own L3 rule.
			if proto := tw.rawSlot(ex, spec.Select[0].Field); proto != nil && proto != s {
				need, have = tw.eqSlotConst(proto, spec.Select[0].Value), true
			}
		}
		if have {
			cons = bld.And(cons, bld.Implies(tw.nonZero(s), need))
		}
	}
	return cons
}

// matchNode lowers an entry's match to the key-bit BDD through
// pdpi.Lower, as Executor.matchCond does: each lowered condition pins the
// masked bits of its key, absent matches are unconstrained, and an entry
// that matches nothing is false.
func (tw *tableWitness) matchNode(t *ir.Table, e *pdpi.Entry) bdd.Node {
	cond := bdd.True
	for i := range e.Matches {
		c, ok := pdpi.Lower(t, &e.Matches[i])
		if !ok {
			return bdd.False
		}
		slot := &tw.slots[c.Key]
		cond = tw.bld.And(cond, tw.eqBits(slot.off, slot.key.Field.Width, c.Want, c.Mask))
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
// (the axioms force invalid headers to read as zero). Every selector it
// sets or reads comes from the parser spec. Returns false when the
// assignment is irreparable — a nonzero value pinned inside an invalid
// header.
func (tw *tableWitness) repair(ex *Executor, seed *smt.Model, patch map[*smt.Term]value.V, assign []bool) bool {
	ps := tw.ps
	input := func(name string) *smt.Term {
		if f, ok := ex.prog.HeaderField(name); ok {
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
	// The untagged EtherType: every L3 header's first selector reads it.
	etherName := ""
	for _, spec := range dataflow.Specs() {
		if spec.Role == dataflow.RoleL3 {
			etherName = spec.Select[0].Field
		}
	}
	ether := input(etherName)
	etherSlot := tw.rawSlot(ex, etherName)

	// Decide the L3 context implied by the assignment.
	want := ""          // L3 header (short name) to parse; "" = plain L2
	var etherVal uint64 // the EtherType selecting want
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
				want, etherVal = spec.Name, spec.Select[0].Value
			}
		}
	}
	switch {
	case etherSlot != nil:
		determined = true
		etherVal = tw.slotVal(etherSlot, assign).Uint64()
		for _, spec := range ps.Chain() {
			if spec.Role == dataflow.RoleL3 && spec.Select[0].Value == etherVal {
				want = spec.Name
			}
		}
	case determined:
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
				etherVal = spec.Select[0].Value
				break
			}
		}
		if determined && ether != nil {
			patch[ether] = value.New(etherVal, ether.Width())
		}
	}

	setValid := func(header string, v bool) {
		if vt := input(header + ".$valid"); vt != nil {
			b := value.Zero(1)
			if v {
				b = value.New(1, 1)
			}
			patch[vt] = b
		}
	}
	if determined {
		for _, spec := range ps.Chain() {
			switch spec.Role {
			case dataflow.RoleEthernet:
				setValid(spec.Name, true)
			case dataflow.RoleVlan:
				setValid(spec.Name, etherVal == spec.Select[0].Value)
			case dataflow.RoleL3:
				setValid(spec.Name, spec.Name == want)
			}
		}
	}

	// Recompute the L4 and inner validities, in parse order, whenever the
	// context or an L4 discriminator changed under our feet.
	recompute := determined
	for _, spec := range ps.Chain() {
		if spec.Role != dataflow.RoleL4 {
			continue
		}
		for _, sel := range spec.Select {
			if _, ok := patch[input(sel.Field)]; ok {
				recompute = true
			}
		}
	}
	if recompute {
		for _, spec := range ps.Chain() {
			if spec.Role != dataflow.RoleL4 && spec.Role != dataflow.RoleInner {
				continue
			}
			v := false
			for _, sel := range spec.Select {
				hv, ft := input(sel.Header()+".$valid"), input(sel.Field)
				if hv != nil && ft != nil && !cur(hv).Equal(value.Zero(1)) && cur(ft).Uint64() == sel.Value {
					v = true
				}
			}
			setValid(spec.Name, v)
		}
	}

	// Axiom compliance: every field of every invalid chain header reads
	// as zero. A nonzero assignment inside one is irreparable.
	for _, spec := range ps.Chain() {
		valid, ok := ex.prog.HeaderField(spec.Name + ".$valid")
		if !ok || !cur(ex.inputs[valid.ID]).Equal(value.Zero(1)) {
			continue
		}
		for _, f := range ex.prog.Fields {
			if f.Header != valid.Header || f.IsValidity {
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
	if f, ok := ex.prog.HeaderField("ethernet.$valid"); ok {
		vars[ex.inputs[f.ID]] = value.New(1, 1)
	}
	return ex.solver.NewModel(vars)
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
