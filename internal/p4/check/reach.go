// Control-flow reachability: a guarded-command traversal of the apply
// blocks that over-approximates the symbolic executor's semantics.
//
// The traversal mirrors symbolic.Executor's single-pass guarded
// execution (both lower expressions with smt.LowerExpr/LowerBool),
// with two deliberate relaxations that make it a strict
// over-approximation (so "unreachable here" implies "unreachable under
// any entry set and any input"):
//
//   - inputs are left unconstrained: no parser axioms, no
//     metadata-starts-zero assertions — the executor only ever adds
//     assertions, which can only shrink the model set;
//   - table applications havoc: every field any of the table's actions
//     may write gets a fresh unconstrained variable, covering every
//     possible entry set (including "no entry matched, nothing
//     written", since a fresh variable may equal the old value).
//
// Structure decides what it can for free (a guard that folds to the
// constant false is dead without a solver call); the solver is asked
// only where structure is inconclusive. Findings are root-caused: once
// a branch arm is reported dead, everything inside it is traversed
// under a false guard and suppressed — nested tables still join the
// unreachable set (for goal pruning and coverage exclusion) but do not
// produce their own findings.
package check

import (
	"fmt"

	"switchv/internal/p4/ir"
	"switchv/internal/sat"
	"switchv/internal/smt"
)

// reachChecker is the traversal state of one reachability analysis.
type reachChecker struct {
	prog   *ir.Program
	rep    *Report
	b      *smt.Builder
	solver *smt.Solver

	state []*smt.Term // field ID -> current over-approximated value
	halt  *smt.Term   // guard under which exit was executed

	havocSeq  int
	branchSeq int
	ctrl      string // control being traversed, for diagnostics

	// feasible memoizes solver verdicts per guard term.
	feasible map[*smt.Term]bool

	// Per-table apply-site accounting.
	reached         map[string]bool // some apply site is satisfiable
	sites           map[string]int  // apply sites seen
	suppressedSites map[string]int  // apply sites inside reported-dead regions
}

// checkReachability runs the control-flow and SMT passes, reporting
// unreachable branch arms (P4C008/P4C009) and unreachable tables
// (P4C007), and recording the full unreachable-table set on the
// report.
func checkReachability(r *Report, prog *ir.Program) {
	b := smt.NewBuilder()
	c := &reachChecker{
		prog:            prog,
		rep:             r,
		b:               b,
		solver:          smt.NewSolver(b),
		halt:            b.False(),
		feasible:        map[*smt.Term]bool{},
		reached:         map[string]bool{},
		sites:           map[string]int{},
		suppressedSites: map[string]int{},
	}
	c.state = make([]*smt.Term, len(prog.Fields))
	for i, f := range prog.Fields {
		c.state[i] = b.BV("x!"+f.Name, f.Width)
	}
	for _, ctrl := range prog.Controls {
		c.ctrl = ctrl.Name
		c.walk(ctrl.Body, b.Not(c.halt), false)
	}
	for _, t := range prog.Tables {
		if c.reached[t.Name] {
			continue
		}
		r.unreachable[t.Name] = true
		switch {
		case c.sites[t.Name] == 0:
			r.addf(CodeUnreachableTable, Warn, t.Name, "table is never applied by any control")
		case c.suppressedSites[t.Name] < c.sites[t.Name]:
			r.addf(CodeUnreachableTable, Warn, t.Name, "table is applied only under unreachable guards")
		}
		// Tables whose every apply site sits inside an already-reported
		// dead region stay silent: the region's finding is the root
		// cause, and repeating it per table would break the one-defect,
		// one-diagnostic contract.
	}
}

// satisfiable asks whether a guard admits any state, structurally when
// possible and via the solver otherwise. Unknown verdicts count as
// satisfiable (the sound direction: never report a live region dead).
func (c *reachChecker) satisfiable(g *smt.Term) bool {
	if g == c.b.False() {
		return false
	}
	if g == c.b.True() {
		return true
	}
	if v, ok := c.feasible[g]; ok {
		return v
	}
	c.rep.SolverChecks++
	v := c.solver.CheckAssuming(g) != sat.Unsat
	c.feasible[g] = v
	return v
}

// walk traverses statements under guard g, returning the surviving
// guard. suppressed marks regions whose deadness has already been
// reported upstream.
func (c *reachChecker) walk(stmts []ir.Stmt, g *smt.Term, suppressed bool) *smt.Term {
	b := c.b
	for _, st := range stmts {
		switch x := st.(type) {
		case *ir.Assign:
			rhs := b.Resize(smt.LowerExpr(b, c.state, &x.Src, c.havocParam), x.Dst.Width)
			c.state[x.Dst.ID] = b.Ite(g, rhs, c.state[x.Dst.ID])
		case *ir.If:
			g = c.walkIf(x, g, suppressed)
		case *ir.ApplyTable:
			c.applySite(x.Table, g, suppressed)
		case *ir.Exit:
			c.halt = b.Or(c.halt, g)
			g = b.False()
		case *ir.Return:
			g = b.False()
		default:
			panic(fmt.Sprintf("check: unknown statement %T", st))
		}
	}
	return g
}

// walkIf handles one branch: classify each arm (live, structurally
// dead, solver-proved dead), report dead arms once at their root, and
// traverse both arms.
func (c *reachChecker) walkIf(x *ir.If, g *smt.Term, suppressed bool) *smt.Term {
	b := c.b
	cond := smt.LowerBool(b, c.state, &x.Cond, c.havocParam)
	c.branchSeq++
	seq := c.branchSeq
	gThen := b.And(g, cond)
	gElse := b.And(g, b.Not(cond))

	// Inside a dead region (guard already false, or deadness already
	// reported upstream) arms are traversed for table accounting only:
	// no arm-level findings, and nested apply sites inherit the
	// region's suppression (an unreported dead region — code after an
	// exit — still surfaces its tables as P4C007).
	regionDead := suppressed || g == b.False()

	arm := func(guard *smt.Term, name string) (*smt.Term, bool) {
		if regionDead {
			return b.False(), suppressed
		}
		if guard == b.False() {
			c.rep.addf(CodeUnreachableBranch, Warn, "",
				"control %s branch #%d: %s-arm is unreachable (guard is constant false)", c.ctrl, seq, name)
			return b.False(), true
		}
		if !c.satisfiable(guard) {
			c.rep.addf(CodeInfeasibleGuard, Warn, "",
				"control %s branch #%d: %s-arm guard is unsatisfiable", c.ctrl, seq, name)
			return b.False(), true
		}
		return guard, suppressed
	}
	gThen, supThen := arm(gThen, "then")
	gElse, supElse := arm(gElse, "else")

	outThen := c.walk(x.Then, gThen, supThen)
	outElse := c.walk(x.Else, gElse, supElse)
	return b.Or(outThen, outElse)
}

// applySite records one t.apply() site and havocs the table's write
// set: every field any of its actions may assign gets a fresh
// unconstrained variable under the site's guard, over-approximating
// every possible entry set.
func (c *reachChecker) applySite(t *ir.Table, g *smt.Term, suppressed bool) {
	b := c.b
	c.sites[t.Name]++
	if suppressed {
		c.suppressedSites[t.Name]++
	} else if c.satisfiable(g) {
		c.reached[t.Name] = true
	}
	c.havocSeq++
	for _, f := range writtenFields(t, c.prog) {
		fresh := b.BV(fmt.Sprintf("havoc!%d!%s", c.havocSeq, f.Name), f.Width)
		c.state[f.ID] = b.Ite(g, fresh, c.state[f.ID])
	}
}

// writtenFields returns the fields any action of the table (including
// its default) may assign, in field-ID order.
func writtenFields(t *ir.Table, prog *ir.Program) []*ir.Field {
	written := map[int]bool{}
	var collect func(stmts []ir.Stmt)
	collect = func(stmts []ir.Stmt) {
		for _, st := range stmts {
			switch x := st.(type) {
			case *ir.Assign:
				written[x.Dst.ID] = true
			case *ir.If:
				collect(x.Then)
				collect(x.Else)
			}
		}
	}
	for _, a := range t.Actions {
		collect(a.Body)
	}
	collect(t.DefaultAction.Body)
	var out []*ir.Field
	for _, f := range prog.Fields {
		if written[f.ID] {
			out = append(out, f)
		}
	}
	return out
}

// havocParam lowers an action parameter to a fresh variable. Action
// parameters cannot appear in apply blocks, but havocking one keeps the
// traversal total if they ever do.
func (c *reachChecker) havocParam(e *ir.Expr) *smt.Term {
	c.havocSeq++
	return c.b.BV(fmt.Sprintf("havoc!%d!param", c.havocSeq), e.Width)
}
