package bmv2

import (
	"fmt"
	"strings"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
)

// Disposition classifies what happened to a packet.
type Disposition int

// Dispositions.
const (
	Forwarded Disposition = iota
	Dropped
	Punted
)

func (d Disposition) String() string {
	switch d {
	case Forwarded:
		return "forwarded"
	case Dropped:
		return "dropped"
	case Punted:
		return "punted"
	default:
		return fmt.Sprintf("Disposition(%d)", int(d))
	}
}

// Input is a packet arriving on a port.
type Input struct {
	Port   uint16
	Packet []byte
}

// MirrorCopy is a cloned packet sent to a mirror destination.
type MirrorCopy struct {
	Session uint16
	Packet  []byte
}

// TableHit records which entry (or default action) a table apply chose.
type TableHit struct {
	Table    string
	EntryKey string // "" for default action / miss
	Action   string
}

// Outcome is the observable behavior of one packet traversal.
type Outcome struct {
	Disposition Disposition
	EgressPort  uint16
	Packet      []byte // rewritten packet (forwarded) or punted payload
	CopyToCPU   bool
	Mirrors     []MirrorCopy
	Trace       []TableHit
}

// Signature canonically summarizes the outcome for behavior-set
// comparison. The trace is excluded: only observable behavior counts.
func (o *Outcome) Signature() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s port=%d copy=%v pkt=%x", o.Disposition, o.EgressPort, o.CopyToCPU, o.Packet)
	for _, m := range o.Mirrors {
		fmt.Fprintf(&b, " mirror[%d]=%x", m.Session, m.Packet)
	}
	return b.String()
}

// Simulator is the engine contract shared by the reference interpreter
// (Interp, this package) and the compiled pipeline
// (internal/p4/compile). Campaigns run the compiled pipeline; the
// interpreter is its differential oracle, and tests hold the two
// outcome-identical, traces included.
//
// Engines carry per-run mutable state (the selector round-robin
// counters); Reset restores the state a freshly constructed engine has,
// which is what callers sharing one engine across independent packets
// must invoke between packets to keep verdicts schedule-independent.
type Simulator interface {
	Run(in Input) (*Outcome, error)
	BehaviorSet(in Input, maxIter int) ([]*Outcome, error)
	Reset()
	Program() *ir.Program
	Store() *pdpi.Store
}

// Interp interprets a compiled P4 model against installed entries.
type Interp struct {
	prog  *ir.Program
	store *pdpi.Store

	// rr holds round-robin counters for selector-table entries (the
	// configured stand-in for hashing, §5 "Hashing").
	rr map[string]int

	fDrop, fPunt, fCopy, fMirror, fMirrorSession *ir.Field
	fIngress, fEgress                            *ir.Field
}

// New builds a simulator over a program and an entry store. The store is
// used by reference: callers may mutate it between runs.
func New(prog *ir.Program, store *pdpi.Store) (*Interp, error) {
	sim := &Interp{prog: prog, store: store, rr: map[string]int{}}
	var ok bool
	get := func(name string) (*ir.Field, error) {
		f, found := prog.FieldByName(name)
		if !found {
			return nil, fmt.Errorf("bmv2: program lacks field %s", name)
		}
		return f, nil
	}
	var err error
	if sim.fDrop, err = get(ir.FieldDrop); err != nil {
		return nil, err
	}
	if sim.fPunt, err = get(ir.FieldPunt); err != nil {
		return nil, err
	}
	if sim.fCopy, err = get(ir.FieldCopy); err != nil {
		return nil, err
	}
	if sim.fMirror, err = get(ir.FieldMirror); err != nil {
		return nil, err
	}
	if sim.fMirrorSession, err = get(ir.FieldMirrorSession); err != nil {
		return nil, err
	}
	if sim.fIngress, ok = prog.FieldByName(ir.FieldIngressPort); !ok {
		return nil, fmt.Errorf("bmv2: program lacks standard metadata")
	}
	if sim.fEgress, ok = prog.FieldByName(ir.FieldEgressSpec); !ok {
		return nil, fmt.Errorf("bmv2: program lacks standard metadata")
	}
	return sim, nil
}

// Program returns the model being simulated.
func (sim *Interp) Program() *ir.Program { return sim.prog }

// Store returns the entry store.
func (sim *Interp) Store() *pdpi.Store { return sim.store }

// Reset restores the interpreter to its freshly constructed state by
// clearing the selector round-robin counters. Entries and program are
// shared by reference and unaffected.
func (sim *Interp) Reset() {
	clear(sim.rr)
}

// exitPipeline signals an exit statement; it unwinds via panic/recover to
// keep the interpreter simple and allocation-free on the happy path.
type exitPipeline struct{}
type returnControl struct{}

// Run traverses one packet through the pipeline.
func (sim *Interp) Run(in Input) (*Outcome, error) {
	fs := newFieldSpace(sim.prog)
	payload, err := sim.parse(fs, in.Packet)
	if err != nil {
		return nil, fmt.Errorf("bmv2: parse: %w", err)
	}
	fs[sim.fIngress.ID] = value.New(uint64(in.Port), sim.fIngress.Width)

	out := &Outcome{}
	if err := sim.runPipeline(fs, out); err != nil {
		return nil, err
	}

	// Resolve the final disposition from the synthetic fields.
	punt := !fs[sim.fPunt.ID].IsZero()
	drop := !fs[sim.fDrop.ID].IsZero()
	out.CopyToCPU = !fs[sim.fCopy.ID].IsZero()
	data, err := sim.deparse(fs, payload)
	if err != nil {
		return nil, fmt.Errorf("bmv2: deparse: %w", err)
	}
	switch {
	case punt:
		out.Disposition = Punted
		out.Packet = data
	case drop:
		out.Disposition = Dropped
	default:
		out.Disposition = Forwarded
		out.EgressPort = uint16(fs[sim.fEgress.ID].Uint64())
		out.Packet = data
	}
	if !fs[sim.fMirror.ID].IsZero() && out.Disposition != Dropped {
		out.Mirrors = append(out.Mirrors, MirrorCopy{
			Session: uint16(fs[sim.fMirrorSession.ID].Uint64()),
			Packet:  data,
		})
	}
	return out, nil
}

func (sim *Interp) runPipeline(fs fieldSpace, out *Outcome) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(exitPipeline); ok {
				return
			}
			panic(r)
		}
	}()
	for i, ctrl := range sim.prog.Controls {
		if i > 0 {
			// Between pipeline stages the chosen egress becomes visible as
			// egress_port (simple_switch semantics).
			if f, ok := sim.prog.FieldByName("standard_metadata.egress_port"); ok {
				fs[f.ID] = fs[sim.fEgress.ID].WithWidth(f.Width)
			}
		}
		sim.runControl(fs, ctrl, out)
	}
	return nil
}

func (sim *Interp) runControl(fs fieldSpace, ctrl *ir.Control, out *Outcome) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(returnControl); ok {
				return
			}
			panic(r)
		}
	}()
	sim.runStmts(fs, ctrl.Body, nil, out)
}

// runStmts executes statements; args binds action parameters (nil outside
// actions).
func (sim *Interp) runStmts(fs fieldSpace, stmts []ir.Stmt, args []value.V, out *Outcome) {
	for _, st := range stmts {
		switch x := st.(type) {
		case *ir.Assign:
			fs[x.Dst.ID] = sim.eval(fs, &x.Src, args).WithWidth(x.Dst.Width)
		case *ir.If:
			if !sim.eval(fs, &x.Cond, args).IsZero() {
				sim.runStmts(fs, x.Then, args, out)
			} else {
				sim.runStmts(fs, x.Else, args, out)
			}
		case *ir.ApplyTable:
			sim.applyTable(fs, x.Table, out)
		case *ir.Exit:
			panic(exitPipeline{})
		case *ir.Return:
			panic(returnControl{})
		default:
			panic(fmt.Sprintf("bmv2: unknown statement %T", st))
		}
	}
}

// eval computes an expression over the field space.
func (sim *Interp) eval(fs fieldSpace, e *ir.Expr, args []value.V) value.V {
	switch e.Op {
	case ir.OpConst:
		return value.New(e.Value, e.Width)
	case ir.OpField:
		return fs[e.Field.ID]
	case ir.OpParam:
		return args[e.Param]
	}
	boolV := func(b bool) value.V {
		if b {
			return value.New(1, 1)
		}
		return value.Zero(1)
	}
	a := sim.eval(fs, e.Args[0], args)
	if e.Op == ir.OpNot {
		return boolV(a.IsZero())
	}
	if e.Op == ir.OpBitNot {
		return a.Not()
	}
	if e.Op == ir.OpMux {
		if !a.IsZero() {
			return sim.eval(fs, e.Args[1], args)
		}
		return sim.eval(fs, e.Args[2], args)
	}
	// Short-circuit logical operators.
	if e.Op == ir.OpAnd {
		if a.IsZero() {
			return boolV(false)
		}
		return boolV(!sim.eval(fs, e.Args[1], args).IsZero())
	}
	if e.Op == ir.OpOr {
		if !a.IsZero() {
			return boolV(true)
		}
		return boolV(!sim.eval(fs, e.Args[1], args).IsZero())
	}
	b := sim.eval(fs, e.Args[1], args)
	switch e.Op {
	case ir.OpEq:
		return boolV(a.Equal(b))
	case ir.OpNe:
		return boolV(!a.Equal(b))
	case ir.OpLt:
		return boolV(a.Less(b))
	case ir.OpLe:
		return boolV(!b.Less(a))
	case ir.OpGt:
		return boolV(b.Less(a))
	case ir.OpGe:
		return boolV(!a.Less(b))
	case ir.OpBitAnd:
		return a.And(b)
	case ir.OpBitOr:
		return a.Or(b)
	case ir.OpBitXor:
		return a.Xor(b)
	case ir.OpAdd:
		return a.Add(b)
	case ir.OpSub:
		return a.Sub(b)
	case ir.OpShl:
		return a.Shl(int(b.Uint64()))
	case ir.OpShr:
		return a.Shr(int(b.Uint64()))
	default:
		panic(fmt.Sprintf("bmv2: unknown op %d", e.Op))
	}
}

// applyTable matches the field space against a table's entries and
// executes the selected action.
func (sim *Interp) applyTable(fs fieldSpace, t *ir.Table, out *Outcome) {
	entry := sim.selectEntry(fs, t)
	if entry == nil {
		out.Trace = append(out.Trace, TableHit{Table: t.Name, Action: t.DefaultAction.Name})
		args := make([]value.V, len(t.DefaultAction.Params))
		for i, p := range t.DefaultAction.Params {
			var arg uint64
			if i < len(t.DefaultActionArgs) {
				arg = t.DefaultActionArgs[i]
			}
			args[i] = value.New(arg, p.Width)
		}
		sim.runStmts(fs, t.DefaultAction.Body, args, out)
		return
	}
	inv := entry.Action
	if t.IsSelector {
		inv = sim.selectMember(entry)
	}
	out.Trace = append(out.Trace, TableHit{Table: t.Name, EntryKey: entry.Key(), Action: inv.Action.Name})
	sim.runStmts(fs, inv.Action.Body, inv.Args, out)
}

// selectMember picks a one-shot action-set member round-robin. Members are
// cycled unweighted: the weights steer hardware load balancing, while the
// round-robin stand-in only needs to enumerate every possible behavior
// before repeating (§5 "Hashing").
func (sim *Interp) selectMember(e *pdpi.Entry) *pdpi.ActionInvocation {
	key := e.Key()
	idx := sim.rr[key] % len(e.ActionSet)
	sim.rr[key]++
	return &e.ActionSet[idx].ActionInvocation
}

// selectEntry returns the matching entry with highest precedence, or nil.
func (sim *Interp) selectEntry(fs fieldSpace, t *ir.Table) *pdpi.Entry {
	entries := sim.store.Entries(t.Name)
	if pdpi.NeedsPriority(t) {
		// Highest priority wins; ties broken by installation order (which
		// is the iteration order of Entries).
		var best *pdpi.Entry
		for _, e := range entries {
			if !sim.entryMatches(fs, t, e) {
				continue
			}
			if best == nil || e.Priority > best.Priority {
				best = e
			}
		}
		return best
	}
	lpmKey := ""
	for _, k := range t.Keys {
		if k.Match == ir.MatchLPM {
			lpmKey = k.Name
		}
	}
	if lpmKey != "" {
		// Longest prefix wins.
		var best *pdpi.Entry
		bestLen := -2
		for _, e := range entries {
			if !sim.entryMatches(fs, t, e) {
				continue
			}
			if l := matchPrefixLen(e, lpmKey); best == nil || l > bestLen {
				best, bestLen = e, l
			}
		}
		return best
	}
	// Pure-exact tables can have at most one match.
	for _, e := range entries {
		if sim.entryMatches(fs, t, e) {
			return e
		}
	}
	return nil
}

func matchPrefixLen(e *pdpi.Entry, key string) int {
	if m, ok := e.Match(key); ok {
		return m.PrefixLen
	}
	return -1 // key omitted: matches everything, lowest precedence
}

// entryMatches checks an entry's matches against the field space.
func (sim *Interp) entryMatches(fs fieldSpace, t *ir.Table, e *pdpi.Entry) bool {
	for _, m := range e.Matches {
		k, ok := t.KeyByName(m.Key)
		if !ok {
			return false
		}
		fv := fs[k.Field.ID]
		switch m.Kind {
		case ir.MatchExact, ir.MatchOptional:
			if !fv.Equal(m.Value) {
				return false
			}
		case ir.MatchLPM:
			mask := value.PrefixMask(m.PrefixLen, k.Field.Width)
			if !fv.And(mask).Equal(m.Value.And(mask)) {
				return false
			}
		case ir.MatchTernary:
			if !fv.And(m.Mask).Equal(m.Value) {
				return false
			}
		}
	}
	return true
}

// BehaviorSet returns the interpreter's behavior set for the packet
// (see the package-level BehaviorSet).
func (sim *Interp) BehaviorSet(in Input, maxIter int) ([]*Outcome, error) {
	return BehaviorSet(sim, in, maxIter)
}

// BehaviorSet runs the packet through sim repeatedly until an outcome
// signature repeats, returning the set of distinct behaviors (§5
// "Hashing": the simulator uses round-robin selection, so repetition
// implies closure). maxIter bounds the loop defensively. Both engines'
// BehaviorSet methods run this one loop.
func BehaviorSet(sim Simulator, in Input, maxIter int) ([]*Outcome, error) {
	seen := map[string]bool{}
	var out []*Outcome
	for i := 0; i < maxIter; i++ {
		o, err := sim.Run(in)
		if err != nil {
			return nil, err
		}
		sig := o.Signature()
		if seen[sig] {
			return out, nil
		}
		seen[sig] = true
		out = append(out, o)
	}
	return out, nil
}
