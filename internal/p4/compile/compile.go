// Package compile lowers the P4 IR to closure trees at program-load
// time, replacing per-packet IR walking with direct calls: every
// statement and expression becomes a Go closure over pre-resolved field
// IDs, and every table entry a pre-masked match row in precedence order.
// A packet is parsed with the interpreter's walk over the program's
// bmv2.Layout and deparsed with a flat writer over a reusable buffer.
// The result implements the same bmv2.Simulator contract as the
// interpreter and is differentially tested to be outcome-identical,
// traces included.
//
// A Pipeline compiles a frozen store: New builds every table's rows
// once, so the store must not be mutated after New (build a new
// Pipeline instead). Every caller fills its store first, as
// symbolic.New requires too.
//
// Like bmv2.Interp, a Pipeline is single-goroutine: concurrent callers
// build one Pipeline each (they may share the store).
package compile

import (
	"fmt"

	"switchv/internal/bmv2"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
)

// signal is the control-flow result of a compiled statement, replacing
// the interpreter's panic/recover unwinding.
type signal uint8

const (
	sigNone   signal = iota
	sigReturn        // ir.Return: unwind to the enclosing control boundary
	sigExit          // ir.Exit: unwind the whole pipeline
)

// exec is the per-run mutable state threaded through compiled closures.
type exec struct {
	fs    []value.V
	args  []value.V // current action frame (nil outside actions)
	out   *bmv2.Outcome
	trace []uint32 // hit-registry IDs, reused scratch; interned per run
}

type (
	stmtFn func(m *exec) signal
	exprFn func(m *exec) value.V
)

// arenas hands out per-run output memory (outcomes, trace slices,
// packet bytes) from forward-only chunks: one allocation per chunk
// instead of three per packet. Handed-out memory is never reused —
// the cursor only moves forward and Reset does not rewind it — so
// outcomes retained by callers stay valid indefinitely.
type arenas struct {
	outs  []bmv2.Outcome
	bytes []byte
}

func (a *arenas) outcome() *bmv2.Outcome {
	if len(a.outs) == 0 {
		a.outs = make([]bmv2.Outcome, 64)
	}
	o := &a.outs[0]
	a.outs = a.outs[1:]
	return o
}

// byteSlice copies src into arena memory, capped so a caller append
// reallocates instead of writing into the next run's slice.
func (a *arenas) byteSlice(src []byte) []byte {
	n := len(src)
	if n > len(a.bytes) {
		c := 4096
		if n > c {
			c = n
		}
		a.bytes = make([]byte, c)
	}
	s := a.bytes[:n:n]
	a.bytes = a.bytes[n:]
	copy(s, src)
	return s
}

// runSeq executes a compiled statement list, stopping on the first
// non-trivial control-flow signal.
func runSeq(m *exec, body []stmtFn) signal {
	for _, f := range body {
		if s := f(m); s != sigNone {
			return s
		}
	}
	return sigNone
}

// Pipeline is a compiled P4 pipeline over a program and an entry store.
// It implements bmv2.Simulator.
type Pipeline struct {
	prog  *ir.Program
	store *pdpi.Store

	controls [][]stmtFn

	layout *bmv2.Layout

	// rr holds the selector round-robin counters, keyed like the
	// interpreter's (per entry key) so behavior-set enumeration matches.
	rr map[string]int

	// applies counts ApplyTable statements: the per-run trace bound.
	applies int

	// hitReg assigns every compiled trace record a small ID; runs
	// collect IDs (pointer-free, no write barriers) and traceCache
	// interns each distinct ID sequence as one shared materialized
	// []TableHit, so the steady state allocates no trace memory per
	// packet. Callers treat Outcome.Trace as read-only, like the
	// interpreter's.
	hitReg     []bmv2.TableHit
	traceCache map[string][]bmv2.TableHit
	traceKey   []byte

	// actionBodies shares compiled action bodies across entries.
	actionBodies map[*ir.Action][]stmtFn

	// Reusable per-run scratch: the field space and the deparse buffer.
	fs   []value.V
	flat []byte
	m    exec
	ar   arenas
}

// Pipeline implements the engine contract.
var _ bmv2.Simulator = (*Pipeline)(nil)

// New compiles the program's controls to closure trees and the store's
// entries to match rows. The store must not be mutated afterwards.
func New(prog *ir.Program, store *pdpi.Store) (*Pipeline, error) {
	layout := bmv2.LayoutOf(prog)
	if err := layout.Runnable(); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	p := &Pipeline{
		prog:         prog,
		store:        store,
		layout:       layout,
		rr:           map[string]int{},
		actionBodies: map[*ir.Action][]stmtFn{},
		traceCache:   map[string][]bmv2.TableHit{},
	}

	// Compile the controls. Table slots are created and filled from the
	// store on first reference.
	slots := map[*ir.Table]*compiledTable{}
	for _, ctrl := range prog.Controls {
		p.controls = append(p.controls, p.compileStmts(ctrl.Body, slots))
	}

	p.fs = make([]value.V, len(prog.Fields))
	p.m.fs = p.fs
	return p, nil
}

// Program returns the model being simulated.
func (p *Pipeline) Program() *ir.Program { return p.prog }

// Store returns the entry store.
func (p *Pipeline) Store() *pdpi.Store { return p.store }

// Reset restores the pipeline to its freshly constructed state by
// clearing the selector round-robin counters; compiled code and tables
// are immutable run state and stay.
func (p *Pipeline) Reset() {
	clear(p.rr)
}

// Run traverses one packet through the compiled pipeline. The outcome is
// bit-identical to bmv2.Interp.Run on the same program, store and input.
func (p *Pipeline) Run(in bmv2.Input) (*bmv2.Outcome, error) {
	fs := p.fs
	payload, err := p.layout.Parse(fs, in)
	if err != nil {
		return nil, fmt.Errorf("compile: parse: %w", err)
	}

	out := p.ar.outcome()
	m := &p.m
	m.args, m.out = nil, out
	m.trace = m.trace[:0]
	for i, body := range p.controls {
		if i > 0 {
			p.layout.NextStage(fs)
		}
		if runSeq(m, body) == sigExit {
			break
		}
	}

	if len(m.trace) > 0 {
		out.Trace = p.internTrace(m.trace)
	}

	// Pure drops carry no packet, so skip the deparse outright. Safe
	// because deparse only fails on out-of-range VLAN fields, which
	// width-masked field values cannot produce — so the interpreter,
	// which always deparses, cannot error where we succeed.
	var data []byte
	if p.layout.Carries(fs) {
		raw, err := p.deparse(fs, payload)
		if err != nil {
			return nil, fmt.Errorf("compile: deparse: %w", err)
		}
		// raw aliases the reusable deparse buffer; copy it out since the
		// outcome retains it.
		data = p.ar.byteSlice(raw)
	}
	p.layout.Settle(fs, out, data)
	return out, nil
}

// regHit registers a trace record and returns its ID.
func (p *Pipeline) regHit(h bmv2.TableHit) uint32 {
	p.hitReg = append(p.hitReg, h)
	return uint32(len(p.hitReg) - 1)
}

// internTrace returns the shared materialized trace for an ID sequence,
// building it on first sight. The map probe is allocation-free.
func (p *Pipeline) internTrace(ids []uint32) []bmv2.TableHit {
	key := p.traceKey[:0]
	for _, id := range ids {
		key = append(key, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	p.traceKey = key
	if tr, ok := p.traceCache[string(key)]; ok {
		return tr
	}
	tr := make([]bmv2.TableHit, len(ids))
	for i, id := range ids {
		tr[i] = p.hitReg[id]
	}
	p.traceCache[string(key)] = tr
	return tr
}

// BehaviorSet returns the pipeline's behavior set for the packet: the
// interpreter's closure loop (bmv2.BehaviorSet) over the compiled Run.
func (p *Pipeline) BehaviorSet(in bmv2.Input, maxIter int) ([]*bmv2.Outcome, error) {
	return bmv2.BehaviorSet(p, in, maxIter)
}

// compileStmts lowers a statement list, registering table slots for
// every ApplyTable encountered.
func (p *Pipeline) compileStmts(stmts []ir.Stmt, slots map[*ir.Table]*compiledTable) []stmtFn {
	out := make([]stmtFn, 0, len(stmts))
	for _, st := range stmts {
		out = append(out, p.compileStmt(st, slots))
	}
	return out
}

func (p *Pipeline) compileStmt(st ir.Stmt, slots map[*ir.Table]*compiledTable) stmtFn {
	switch x := st.(type) {
	case *ir.Assign:
		dst, w := x.Dst.ID, x.Dst.Width
		// Constant and register-copy assignments skip the generic
		// expression call (they are the bulk of action bodies).
		switch x.Src.Op {
		case ir.OpConst:
			v := value.New(x.Src.Value, x.Src.Width).WithWidth(w)
			return func(m *exec) signal {
				m.fs[dst] = v
				return sigNone
			}
		case ir.OpField:
			sid := x.Src.Field.ID
			if x.Src.Field.Width == w {
				return func(m *exec) signal {
					m.fs[dst] = m.fs[sid]
					return sigNone
				}
			}
			return func(m *exec) signal {
				m.fs[dst] = m.fs[sid].WithWidth(w)
				return sigNone
			}
		case ir.OpParam:
			idx := x.Src.Param
			return func(m *exec) signal {
				m.fs[dst] = m.args[idx].WithWidth(w)
				return sigNone
			}
		}
		src := p.compileExpr(&x.Src)
		return func(m *exec) signal {
			m.fs[dst] = src(m).WithWidth(w)
			return sigNone
		}
	case *ir.If:
		cond := p.compilePred(&x.Cond)
		then := p.compileStmts(x.Then, slots)
		if len(x.Else) == 0 {
			return func(m *exec) signal {
				if cond(m) {
					return runSeq(m, then)
				}
				return sigNone
			}
		}
		els := p.compileStmts(x.Else, slots)
		return func(m *exec) signal {
			if cond(m) {
				return runSeq(m, then)
			}
			return runSeq(m, els)
		}
	case *ir.ApplyTable:
		ct := p.slotFor(x.Table, slots)
		p.applies++
		return func(m *exec) signal {
			return p.applyTable(m, ct)
		}
	case *ir.Exit:
		return func(m *exec) signal { return sigExit }
	case *ir.Return:
		return func(m *exec) signal { return sigReturn }
	default:
		panic(fmt.Sprintf("compile: unknown statement %T", st))
	}
}

// actionBody returns the shared compiled body of an action. Bodies read
// their arguments through the exec frame, so one compiled body serves
// every entry invoking the action.
func (p *Pipeline) actionBody(a *ir.Action) []stmtFn {
	if body, ok := p.actionBodies[a]; ok {
		return body
	}
	body := p.compileStmts(a.Body, nil)
	p.actionBodies[a] = body
	return body
}

// invoke runs an action body under its argument frame, restoring the
// caller's frame afterwards.
func (p *Pipeline) invoke(m *exec, body []stmtFn, args []value.V) signal {
	saved := m.args
	m.args = args
	s := runSeq(m, body)
	m.args = saved
	return s
}

// Boolean result values, shared by all compiled predicates.
var (
	vTrue  = value.New(1, 1)
	vFalse = value.Zero(1)
)

func boolV(b bool) value.V {
	if b {
		return vTrue
	}
	return vFalse
}

// compilePred lowers an expression used as a branch condition to a bool
// closure, skipping the value.V boxing of the generic path. Evaluation
// order and short-circuiting match compileExpr exactly.
func (p *Pipeline) compilePred(e *ir.Expr) func(m *exec) bool {
	switch e.Op {
	case ir.OpField:
		id := e.Field.ID
		return func(m *exec) bool { return !m.fs[id].IsZero() }
	case ir.OpNot:
		inner := p.compilePred(e.Args[0])
		return func(m *exec) bool { return !inner(m) }
	case ir.OpAnd:
		a := p.compilePred(e.Args[0])
		b := p.compilePred(e.Args[1])
		return func(m *exec) bool { return a(m) && b(m) }
	case ir.OpOr:
		a := p.compilePred(e.Args[0])
		b := p.compilePred(e.Args[1])
		return func(m *exec) bool { return a(m) || b(m) }
	case ir.OpEq:
		a := p.compileExpr(e.Args[0])
		b := p.compileExpr(e.Args[1])
		return func(m *exec) bool { return a(m).Equal(b(m)) }
	case ir.OpNe:
		a := p.compileExpr(e.Args[0])
		b := p.compileExpr(e.Args[1])
		return func(m *exec) bool { return !a(m).Equal(b(m)) }
	case ir.OpLt:
		a := p.compileExpr(e.Args[0])
		b := p.compileExpr(e.Args[1])
		return func(m *exec) bool { return a(m).Less(b(m)) }
	case ir.OpLe:
		a := p.compileExpr(e.Args[0])
		b := p.compileExpr(e.Args[1])
		return func(m *exec) bool { return !b(m).Less(a(m)) }
	case ir.OpGt:
		a := p.compileExpr(e.Args[0])
		b := p.compileExpr(e.Args[1])
		return func(m *exec) bool { return b(m).Less(a(m)) }
	case ir.OpGe:
		a := p.compileExpr(e.Args[0])
		b := p.compileExpr(e.Args[1])
		return func(m *exec) bool { return !a(m).Less(b(m)) }
	default:
		v := p.compileExpr(e)
		return func(m *exec) bool { return !v(m).IsZero() }
	}
}

// compileExpr lowers an expression tree to a closure. The cases mirror
// bmv2.Interp.eval exactly, including short-circuit evaluation and the
// lazy mux arms.
func (p *Pipeline) compileExpr(e *ir.Expr) exprFn {
	switch e.Op {
	case ir.OpConst:
		v := value.New(e.Value, e.Width)
		return func(m *exec) value.V { return v }
	case ir.OpField:
		id := e.Field.ID
		return func(m *exec) value.V { return m.fs[id] }
	case ir.OpParam:
		idx := e.Param
		return func(m *exec) value.V { return m.args[idx] }
	}
	a := p.compileExpr(e.Args[0])
	switch e.Op {
	case ir.OpNot:
		return func(m *exec) value.V { return boolV(a(m).IsZero()) }
	case ir.OpBitNot:
		return func(m *exec) value.V { return a(m).Not() }
	case ir.OpMux:
		t := p.compileExpr(e.Args[1])
		f := p.compileExpr(e.Args[2])
		return func(m *exec) value.V {
			if !a(m).IsZero() {
				return t(m)
			}
			return f(m)
		}
	case ir.OpAnd:
		b := p.compileExpr(e.Args[1])
		return func(m *exec) value.V {
			if a(m).IsZero() {
				return vFalse
			}
			return boolV(!b(m).IsZero())
		}
	case ir.OpOr:
		b := p.compileExpr(e.Args[1])
		return func(m *exec) value.V {
			if !a(m).IsZero() {
				return vTrue
			}
			return boolV(!b(m).IsZero())
		}
	}
	b := p.compileExpr(e.Args[1])
	switch e.Op {
	case ir.OpEq:
		return func(m *exec) value.V { return boolV(a(m).Equal(b(m))) }
	case ir.OpNe:
		return func(m *exec) value.V { return boolV(!a(m).Equal(b(m))) }
	case ir.OpLt:
		return func(m *exec) value.V { return boolV(a(m).Less(b(m))) }
	case ir.OpLe:
		return func(m *exec) value.V { return boolV(!b(m).Less(a(m))) }
	case ir.OpGt:
		return func(m *exec) value.V { return boolV(b(m).Less(a(m))) }
	case ir.OpGe:
		return func(m *exec) value.V { return boolV(!a(m).Less(b(m))) }
	case ir.OpBitAnd:
		return func(m *exec) value.V { return a(m).And(b(m)) }
	case ir.OpBitOr:
		return func(m *exec) value.V { return a(m).Or(b(m)) }
	case ir.OpBitXor:
		return func(m *exec) value.V { return a(m).Xor(b(m)) }
	case ir.OpAdd:
		return func(m *exec) value.V { return a(m).Add(b(m)) }
	case ir.OpSub:
		return func(m *exec) value.V { return a(m).Sub(b(m)) }
	case ir.OpShl:
		return func(m *exec) value.V { return a(m).Shl(int(b(m).Uint64())) }
	case ir.OpShr:
		return func(m *exec) value.V { return a(m).Shr(int(b(m).Uint64())) }
	default:
		panic(fmt.Sprintf("compile: unknown op %d", e.Op))
	}
}
