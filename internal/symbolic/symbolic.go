// Package symbolic implements p4-symbolic (§5): guarded-command symbolic
// execution of a P4 model with concrete table entries, producing
//
//   - X: one unconstrained bitvector variable per input header/metadata
//     field,
//   - Y: the output symbolic state mapping each field to an expression
//     over X,
//   - T: the symbolic trace mapping every control construct (table entry,
//     default action, branch) to a boolean guard over X that holds iff the
//     construct executes.
//
// Coverage goals are conjunctions posed over X, Y and T; each satisfiable
// goal yields a concrete test packet extracted from the SMT model.
//
// Unlike per-path symbolic executors (KLEE-style), the program is executed
// in a single pass: side effects are guarded by their branch context, so
// the number of SMT terms is linear in program plus entries rather than
// exponential in the number of traces (§5 "Trace Isolation").
package symbolic

import (
	"fmt"
	"strings"

	"switchv/internal/bmv2"
	"switchv/internal/p4/dataflow"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
	"switchv/internal/smt"
)

// Options configures the executor.
type Options struct {
	// MaxPort constrains the synthesized ingress port to [0, MaxPort).
	// Zero means 32.
	MaxPort uint16
}

// Executor holds the result of symbolically executing a model.
type Executor struct {
	prog  *ir.Program
	store *pdpi.Store
	opts  Options

	b      *smt.Builder
	solver *smt.Solver

	inputs  []*smt.Term // X, by field ID
	outputs []*smt.Term // Y, by field ID
	trace   map[string]*smt.Term
	keys    []string // trace keys in first-recorded order

	halt *smt.Term // guard under which exit was executed

	branchSeq int

	// Table application order, for per-goal dependency tracking: a
	// goal on table T can only be influenced by entries of tables
	// applied no later than T's last application.
	applySeq   int
	firstApply map[string]int
	lastApply  map[string]int

	// keyState snapshots the symbolic key expressions of each table at
	// its first application: keyState[table][i] is the state term the
	// i-th key field is matched against. The witness engine uses it to
	// tell which keys are still the raw input variables (directly
	// patchable in a candidate model) and to read a seed model's values
	// for the others.
	keyState map[string][]*smt.Term
	// choiceVars lists the selector-choice variables, one per selector
	// entry. A model only constrains the choice of entries it fires; the
	// witness engine pins them all to member 0 (always valid) so grafted
	// candidates cannot inherit garbage choices for entries the seed
	// never fired.
	choiceVars []*smt.Term
}

// TraceKeyEntry names the trace guard for a concrete entry of a table.
func TraceKeyEntry(table string, e *pdpi.Entry) string { return traceKeyEntry(table, e.Key()) }

func traceKeyEntry(table, entryKey string) string { return "table:" + table + ":entry:" + entryKey }

// TraceKeyDefault names the trace guard for a table's default action.
func TraceKeyDefault(table string) string { return "table:" + table + ":default" }

// hitKey names the table goal a simulator trace hit covers: its entry's
// goal, or the table's default goal when no entry matched.
func hitKey(h bmv2.TableHit) string {
	if h.EntryKey == "" {
		return TraceKeyDefault(h.Table)
	}
	return traceKeyEntry(h.Table, h.EntryKey)
}

// HitsGoal reports whether a simulator outcome hits a goal: for a table
// goal, whether some hit of the outcome's trace covers it (hitKey).
// Branch, enriched and other goals are not observable in the trace, and
// every outcome hits them.
func HitsGoal(out *bmv2.Outcome, goalKey string) bool {
	table := goalTable(goalKey)
	if table == "" {
		return true
	}
	for _, h := range out.Trace {
		if h.Table == table && hitKey(h) == goalKey {
			return true
		}
	}
	return false
}

// New symbolically executes the model against the store's entries. The
// store must not be mutated afterwards (re-run New instead; see Cache).
// Pipeline assertions are registered lazily (smt.AssertLazy): every
// check is constrained by all of them, but each is only encoded to CNF
// once a check first needs it, so per-goal checks can be restricted to
// the goal's cone-of-influence slice (CheckSliced).
func New(prog *ir.Program, store *pdpi.Store, opts Options) (*Executor, error) {
	if opts.MaxPort == 0 {
		opts.MaxPort = 32
	}
	b := smt.NewBuilder()
	ex := &Executor{
		prog:       prog,
		store:      store,
		opts:       opts,
		b:          b,
		solver:     smt.NewSolver(b),
		trace:      map[string]*smt.Term{},
		firstApply: map[string]int{},
		lastApply:  map[string]int{},
		keyState:   map[string][]*smt.Term{},
	}
	ex.halt = b.False()

	// X: one variable per field.
	ex.inputs = make([]*smt.Term, len(prog.Fields))
	state := make([]*smt.Term, len(prog.Fields))
	for i, f := range prog.Fields {
		v := b.BV("x!"+f.Name, f.Width)
		ex.inputs[i] = v
		state[i] = v
	}

	if err := ex.assertParserAxioms(); err != nil {
		return nil, err
	}

	// Execute the pipeline.
	for _, ctrl := range prog.Controls {
		ex.runStmts(state, ctrl.Body, b.Not(ex.halt), nil)
	}
	ex.outputs = state
	// The canonical background model completes sliced checks (see
	// smt.CheckSliced): an untagged all-zero frame with only ethernet
	// valid, parseable under every chain shape.
	ex.solver.SetBackground(zeroSeed(ex))
	return ex, nil
}

// Builder exposes the term builder so callers can pose custom coverage
// assertions over X, Y and T (§5 "Coverage Constraints").
func (ex *Executor) Builder() *smt.Builder { return ex.b }

// Input returns the X variable of a field.
func (ex *Executor) Input(f *ir.Field) *smt.Term { return ex.inputs[f.ID] }

// Trace returns the guard of a trace key, or false if the construct was
// never reached.
func (ex *Executor) Trace(key string) *smt.Term {
	if t, ok := ex.trace[key]; ok {
		return t
	}
	return ex.b.False()
}

func (ex *Executor) recordTrace(key string, guard *smt.Term) {
	if old, ok := ex.trace[key]; ok {
		ex.trace[key] = ex.b.Or(old, guard)
		return
	}
	ex.trace[key] = guard
	ex.keys = append(ex.keys, key)
}

// assertParserAxioms couples every header's validity bit with the
// selectors the parser spec (dataflow.Specs) gives it, walking the spec
// in parse order, so models of X always correspond to parseable
// packets. Within a role, a missing header's Forbid rule follows the
// couplings.
func (ex *Executor) assertParserAxioms() error {
	b := ex.b
	// restated maps a discriminator a valid header restates (the VLAN
	// tag's EtherType) to the term its selectors compare.
	restated := map[string]*smt.Term{}
	field := func(name string) *smt.Term {
		if t, ok := restated[name]; ok {
			return t
		}
		if f, ok := ex.prog.HeaderField(name); ok {
			return ex.inputs[f.ID]
		}
		return nil
	}
	valid := func(header string) *smt.Term {
		if t := field(header + ".$valid"); t != nil {
			return b.Eq(t, b.ConstUint(1, 1))
		}
		return nil
	}
	root := ""
	var forbid []*smt.Term
	flush := func() {
		for _, t := range forbid {
			ex.solver.AssertLazy(t)
		}
		forbid = nil
	}
	role := dataflow.RoleEthernet
	for _, spec := range dataflow.Specs() {
		if spec.Role != role {
			flush()
			role = spec.Role
		}
		if spec.Role == dataflow.RoleEthernet {
			v := valid(spec.Name)
			if v == nil {
				return fmt.Errorf("symbolic: model has no %s header", spec.Name)
			}
			ex.solver.AssertLazy(v)
			root = spec.Name
			continue
		}
		sel := b.False()
		for _, s := range spec.Select {
			f := field(s.Field)
			if f == nil {
				continue // the program lacks the selecting header
			}
			c := b.Eq(f, b.ConstUint(s.Value, f.Width()))
			if h := s.Header(); h != root {
				c = b.And(valid(h), c)
			}
			sel = b.Or(sel, c)
		}
		v := valid(spec.Name)
		switch {
		case v != nil:
			ex.solver.AssertLazy(b.Iff(v, sel))
			if r := spec.Restates; r != nil {
				restated[r.Field] = b.Ite(v, field(r.By), field(r.Field))
			}
		case spec.Forbid && sel != b.False():
			// Without the header the reference parser would read opaque
			// payload where the packet's selector promised one.
			forbid = append(forbid, b.Not(sel))
		}
	}
	flush()

	// Fields of invalid headers read as zero, exactly as the reference
	// parser leaves them. Without this, the solver could synthesize
	// packets relying on undefined reads of invalid header fields.
	for _, hi := range ex.prog.HeaderInstances {
		vf, ok := ex.prog.FieldByName(hi.Path + ".$valid")
		if !ok {
			continue
		}
		invalid := b.Eq(ex.inputs[vf.ID], b.ConstUint(0, 1))
		for _, f := range ex.prog.Fields {
			if f.Header != hi.Path || f.IsValidity {
				continue
			}
			ex.solver.AssertLazy(b.Implies(invalid, b.Eq(ex.inputs[f.ID], b.Const(value.Zero(f.Width)))))
		}
	}

	// Ingress port range.
	if f, ok := ex.prog.FieldByName(ir.FieldIngressPort); ok {
		port := ex.inputs[f.ID]
		ex.solver.AssertLazy(b.Ult(port, b.ConstUint(uint64(ex.opts.MaxPort), port.Width())))
	}
	// The synthetic pipeline-state fields start out zero.
	for _, name := range []string{ir.FieldDrop, ir.FieldPunt, ir.FieldCopy, ir.FieldMirror, ir.FieldMirrorSession} {
		if f, ok := ex.prog.FieldByName(name); ok {
			ex.solver.AssertLazy(b.Eq(ex.inputs[f.ID], b.Const(value.Zero(f.Width))))
		}
	}
	// Metadata fields (everything outside the headers struct and standard
	// metadata) start out zero.
	prefix := ex.prog.HeadersPrefix()
	for _, f := range ex.prog.Fields {
		if f.Header != "" || f.Name[0] == '$' {
			continue
		}
		if prefix != "" && strings.HasPrefix(f.Name, prefix+".") {
			continue
		}
		if f.Name == ir.FieldIngressPort || f.Name == ir.FieldEgressPort ||
			f.Name == ir.FieldEgressSpec {
			if f.Name != ir.FieldIngressPort {
				ex.solver.AssertLazy(b.Eq(ex.inputs[f.ID], b.Const(value.Zero(f.Width))))
			}
			continue
		}
		ex.solver.AssertLazy(b.Eq(ex.inputs[f.ID], b.Const(value.Zero(f.Width))))
	}
	return nil
}

// runStmts executes statements under guard g, returning the surviving
// guard (g minus paths that exited or returned).
func (ex *Executor) runStmts(state []*smt.Term, stmts []ir.Stmt, g *smt.Term, args []*smt.Term) *smt.Term {
	b := ex.b
	param := func(e *ir.Expr) *smt.Term { return args[e.Param] }
	for _, st := range stmts {
		switch x := st.(type) {
		case *ir.Assign:
			rhs := b.Resize(smt.LowerExpr(b, state, &x.Src, param), x.Dst.Width)
			state[x.Dst.ID] = b.Ite(g, rhs, state[x.Dst.ID])
		case *ir.If:
			cond := smt.LowerBool(b, state, &x.Cond, param)
			ex.branchSeq++
			key := fmt.Sprintf("branch:%d", ex.branchSeq)
			gThen := b.And(g, cond)
			gElse := b.And(g, b.Not(cond))
			ex.recordTrace(key+":then", gThen)
			ex.recordTrace(key+":else", gElse)
			outThen := ex.runStmts(state, x.Then, gThen, args)
			outElse := ex.runStmts(state, x.Else, gElse, args)
			g = b.Or(outThen, outElse)
		case *ir.ApplyTable:
			ex.applyTable(state, x.Table, g)
		case *ir.Exit:
			ex.halt = b.Or(ex.halt, g)
			g = b.False()
		case *ir.Return:
			g = b.False()
		default:
			panic(fmt.Sprintf("symbolic: unknown statement %T", st))
		}
	}
	return g
}

// applyTable symbolically applies a table under guard g: every entry gets
// a firing guard (its match, minus all higher-precedence matches, §5
// Example), its action executes under that guard, and the default action
// fires when nothing matches.
func (ex *Executor) applyTable(state []*smt.Term, t *ir.Table, g *smt.Term) {
	b := ex.b
	ex.applySeq++
	if _, ok := ex.firstApply[t.Name]; !ok {
		ex.firstApply[t.Name] = ex.applySeq
		ks := make([]*smt.Term, len(t.Keys))
		for i, k := range t.Keys {
			ks[i] = state[k.Field.ID]
		}
		ex.keyState[t.Name] = ks
	}
	ex.lastApply[t.Name] = ex.applySeq
	entries := ex.store.Ordered(t)
	notHigher := b.True()
	for entryIdx, e := range entries {
		m := ex.matchCond(state, t, e)
		fire := b.And(g, b.And(notHigher, m))
		ex.recordTrace(TraceKeyEntry(t.Name, e), fire)
		notHigher = b.And(notHigher, b.Not(m))
		if t.IsSelector {
			// Member selection models the hash as a free operation: a
			// fresh choice variable, constrained only to pick some member
			// (§5 "Hashing").
			choice := b.BV(fmt.Sprintf("choice!%s!%d", t.Name, entryIdx), 16)
			ex.choiceVars = append(ex.choiceVars, choice)
			ex.solver.AssertLazy(b.Implies(fire, b.Ult(choice, b.ConstUint(uint64(len(e.ActionSet)), 16))))
			for i := range e.ActionSet {
				member := &e.ActionSet[i]
				gm := b.And(fire, b.Eq(choice, b.ConstUint(uint64(i), 16)))
				ex.runAction(state, &member.ActionInvocation, gm)
			}
			continue
		}
		ex.runAction(state, e.Action, fire)
	}
	defFire := b.And(g, notHigher)
	ex.recordTrace(TraceKeyDefault(t.Name), defFire)
	defArgs := make([]*smt.Term, len(t.DefaultActionArgs))
	for i, a := range t.DefaultActionArgs {
		defArgs[i] = b.Const(a)
	}
	ex.runStmts(state, t.DefaultAction.Body, defFire, defArgs)
}

func (ex *Executor) runAction(state []*smt.Term, inv *pdpi.ActionInvocation, g *smt.Term) {
	args := make([]*smt.Term, len(inv.Args))
	for i, a := range inv.Args {
		args[i] = ex.b.Const(a)
	}
	ex.runStmts(state, inv.Action.Body, g, args)
}

// matchCond builds the condition under which an entry matches the current
// symbolic state, from the entry's matches as pdpi lowers them: exact and
// optional matches compare the field, LPM and ternary ones its masked
// bits.
func (ex *Executor) matchCond(state []*smt.Term, t *ir.Table, e *pdpi.Entry) *smt.Term {
	b := ex.b
	cond := b.True()
	for i := range e.Matches {
		c, ok := pdpi.Lower(t, &e.Matches[i])
		if !ok {
			return b.False()
		}
		fv := state[t.Keys[c.Key].Field.ID]
		if c.Exact {
			cond = b.And(cond, b.Eq(fv, b.Const(c.Want)))
		} else {
			cond = b.And(cond, b.Eq(b.BVAnd(fv, b.Const(c.Mask)), b.Const(c.Want)))
		}
	}
	return cond
}

// DepEntries returns the installed entries that can influence a goal's
// guard, in deterministic store order: for a goal on table T (an entry
// or default-action goal), the entries of every table applied no later
// than T's last application; for any other goal (branch or enriched,
// whose condition may range over the whole of X, Y and T), every entry.
// Per-goal cache keys are derived from this set, so entry churn in
// tables applied after T leaves T's goals cached.
func (ex *Executor) DepEntries(goalKey string) []*pdpi.Entry {
	return ex.depEntries(ex.depCutoff(goalKey))
}

// depCutoff returns the application sequence number that bounds a
// goal's dependency set: its table's last application, or -1 when every
// entry can influence the goal.
func (ex *Executor) depCutoff(goalKey string) int {
	if cutoff, ok := ex.lastApply[goalTable(goalKey)]; ok {
		return cutoff
	}
	return -1
}

// depEntries returns, in store order, the entries of every table first
// applied no later than cutoff (every entry for a negative cutoff).
func (ex *Executor) depEntries(cutoff int) []*pdpi.Entry {
	all := ex.store.All(ex.prog)
	if cutoff < 0 {
		return all
	}
	deps := make([]*pdpi.Entry, 0, len(all))
	for _, e := range all {
		if first, applied := ex.firstApply[e.Table.Name]; applied && first <= cutoff {
			deps = append(deps, e)
		}
	}
	return deps
}

// GoalTable extracts the table name from a "table:<t>:..." goal key
// ("" for branch and enriched goals). The preflight pipeline uses it
// to relate goals to the analyzer's unreachable-table set.
func GoalTable(key string) string { return goalTable(key) }

// goalTable extracts the table name from a "table:<t>:..." goal key
// ("" for branch and enriched goals).
func goalTable(key string) string {
	const p = "table:"
	if !strings.HasPrefix(key, p) {
		return ""
	}
	rest := key[len(p):]
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		return rest[:i]
	}
	return ""
}

// Drop/punt/forward observables over Y.

// PuntCond returns the guard under which the packet is punted.
func (ex *Executor) PuntCond() *smt.Term {
	f, _ := ex.prog.FieldByName(ir.FieldPunt)
	return ex.b.Eq(ex.outputs[f.ID], ex.b.ConstUint(1, 1))
}

// DropCond returns the guard under which the packet is dropped.
func (ex *Executor) DropCond() *smt.Term {
	b := ex.b
	f, _ := ex.prog.FieldByName(ir.FieldDrop)
	return b.And(b.Eq(ex.outputs[f.ID], b.ConstUint(1, 1)), b.Not(ex.PuntCond()))
}

// ForwardCond returns the guard under which the packet is forwarded.
func (ex *Executor) ForwardCond() *smt.Term {
	return ex.b.Not(ex.b.Or(ex.PuntCond(), ex.DropCond()))
}
