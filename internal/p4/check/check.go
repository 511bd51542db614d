// Package check is SwitchV's static preflight analyzer: a multi-pass
// inspection of the compiled IR that runs before every campaign, in the
// spirit of P4Testgen's extensible front-end and P4R-Type's reject-early
// philosophy. The paper treats the P4 model as the switch's
// specification, API contract and documentation — a defective model
// silently corrupts every downstream verdict, so defects should surface
// before the first solver call or write RPC, not after a full campaign.
//
// Three pass groups run in cost order:
//
//  1. structural — pure IR walks: @refers_to cycles, width mismatches
//     between reference endpoints, shadowed match keys, default actions
//     outside the action list, actions no table names, and
//     @entry_restriction sources that do not compile;
//  2. control-flow reachability — a guarded-command traversal of the
//     apply blocks that over-approximates the symbolic executor (table
//     writes havoc, inputs unconstrained), classifying tables and
//     branch arms that no packet can reach;
//  3. SMT-backed — the solver (internal/sat via internal/smt) decides
//     what structure leaves open: branch guards that are satisfiable
//     in no over-approximated state, and @entry_restriction constraints
//     no entry can satisfy.
//
// Every finding carries a stable diagnostic code (P4C001..) and a
// severity; campaigns refuse to launch on error-severity findings, the
// symbolic generator drops goals on unreachable tables before sharding,
// and the coverage map excludes dead tables from its denominator.
package check

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"switchv/internal/p4/ir"
)

// Severity classifies a finding.
type Severity int

// Severities. Errors block campaign launch; warnings inform and feed
// goal pruning; infos are advisory only.
const (
	Info Severity = iota
	Warn
	Error
)

func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warn:
		return "warn"
	default:
		return "info"
	}
}

// MarshalJSON renders the severity as its lower-case name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Diagnostic codes. Codes are stable across releases: tooling (CI
// gates, suppression lists) keys on them, so they are never renumbered
// or reused.
const (
	// CodeRefersToCycle: the @refers_to graph has a cycle, so no
	// insertion order can ever satisfy all references (and TopoOrder's
	// teardown ordering is undefined).
	CodeRefersToCycle = "P4C001"
	// CodeRefersToWidth: a @refers_to source and its target key have
	// different bit widths; equality between them is vacuous or lossy.
	CodeRefersToWidth = "P4C002"
	// CodeShadowedKey: two keys of one table match on the same
	// underlying field; entries can contradict themselves.
	CodeShadowedKey = "P4C003"
	// CodeInvalidDefault: a table's default action is not in its action
	// list, so the control plane can never reprogram it.
	CodeInvalidDefault = "P4C004"
	// CodeDeadAction: an action no table names; unreachable from any
	// control-plane write.
	CodeDeadAction = "P4C005"
	// CodeBadRestriction: an @entry_restriction source that does not
	// compile; every write to the table would be rejected as unchecked.
	CodeBadRestriction = "P4C006"
	// CodeUnreachableTable: no packet can reach any apply() of the
	// table.
	CodeUnreachableTable = "P4C007"
	// CodeUnreachableBranch: a branch arm whose guard is structurally
	// false (constant-foldable).
	CodeUnreachableBranch = "P4C008"
	// CodeInfeasibleGuard: a branch arm whose guard the solver proves
	// unsatisfiable even in the over-approximated state space.
	CodeInfeasibleGuard = "P4C009"
	// CodeUnsatRestriction: an @entry_restriction no entry can satisfy;
	// the table is permanently empty.
	CodeUnsatRestriction = "P4C010"
	// CodeUninitializedRead: a metadata field is read before the first
	// statement that could write it — the read always sees the zero
	// initialization, so the later write is ordered wrong.
	CodeUninitializedRead = "P4C011"
	// CodeDeadWrite: a write in an apply block that is overwritten by a
	// later write in the same straight-line block before anything could
	// read it; the first value is lost.
	CodeDeadWrite = "P4C012"
	// CodeInvalidHeaderRead: a header field read at a point where the
	// validity lattice proves the header invalid; the read yields zero,
	// never packet data.
	CodeInvalidHeaderRead = "P4C013"
	// CodeValidityCoupledKey: a table matches on a header field whose
	// validity is undetermined at the apply site, without also matching
	// on the header's validity bit or a parser discriminator field —
	// entries cannot tell an absent header from a zero-valued one.
	CodeValidityCoupledKey = "P4C014"
	// CodeUnparsedHeader: a header instance the parser can never produce
	// (unknown to the parse chain, never setValid) is read; its fields
	// are permanently zero.
	CodeUnparsedHeader = "P4C015"
	// CodeConflictingWrites: one action body writes the same field twice
	// with no intervening read; the control plane supplies both values
	// but only the last survives.
	CodeConflictingWrites = "P4C016"
)

// Codes lists every diagnostic code with its fixed severity, in code
// order. The defect-matrix test enforces a bijection between this
// registry and the seeded-defect fixtures.
func Codes() map[string]Severity {
	return map[string]Severity{
		CodeRefersToCycle:      Error,
		CodeRefersToWidth:      Error,
		CodeShadowedKey:        Warn,
		CodeInvalidDefault:     Error,
		CodeDeadAction:         Warn,
		CodeBadRestriction:     Error,
		CodeUnreachableTable:   Warn,
		CodeUnreachableBranch:  Warn,
		CodeInfeasibleGuard:    Warn,
		CodeUnsatRestriction:   Error,
		CodeUninitializedRead:  Warn,
		CodeDeadWrite:          Warn,
		CodeInvalidHeaderRead:  Error,
		CodeValidityCoupledKey: Warn,
		CodeUnparsedHeader:     Error,
		CodeConflictingWrites:  Error,
	}
}

// Finding is one diagnostic.
type Finding struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	// Subject is the table or action the finding is about ("" for
	// program-level findings such as branch reachability).
	Subject string `json:"subject,omitempty"`
	Detail  string `json:"detail"`
}

func (f Finding) String() string {
	if f.Subject != "" {
		return fmt.Sprintf("%s %s %s: %s", f.Code, f.Severity, f.Subject, f.Detail)
	}
	return fmt.Sprintf("%s %s: %s", f.Code, f.Severity, f.Detail)
}

// Report is the result of one preflight analysis.
type Report struct {
	Program  string    `json:"program"`
	Findings []Finding `json:"findings"`
	// SolverChecks counts the SMT checks the analysis spent — the
	// structural passes keep this small; it is zero for models whose
	// reachability is decided entirely by structure.
	SolverChecks int `json:"solver_checks"`

	// unreachable holds every table no packet can reach, including
	// those whose finding was suppressed because an enclosing dead
	// region was already reported (root-cause reporting). Goal pruning
	// and coverage exclusion consume the full set.
	unreachable map[string]bool
}

// Errors counts error-severity findings.
func (r *Report) Errors() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == Error {
			n++
		}
	}
	return n
}

// HasErrors reports whether any finding blocks campaign launch.
func (r *Report) HasErrors() bool { return r.Errors() > 0 }

// TableUnreachable reports whether the analysis proved that no packet
// reaches the named table.
func (r *Report) TableUnreachable(name string) bool { return r.unreachable[name] }

// UnreachableTables lists every unreachable table in sorted order —
// the full set, including tables inside already-reported dead regions
// whose individual findings were suppressed.
func (r *Report) UnreachableTables() []string {
	out := make([]string, 0, len(r.unreachable))
	for name := range r.unreachable {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// UnreachableSet returns the unreachable tables as a set, the shape
// symbolic.GenOptions and coverage.NewMapExcluding consume. The map is
// a copy; mutating it does not affect the report.
func (r *Report) UnreachableSet() map[string]bool {
	out := make(map[string]bool, len(r.unreachable))
	for name := range r.unreachable {
		out[name] = true
	}
	return out
}

// Text renders the report for humans, one finding per line.
func (r *Report) Text() string {
	var b strings.Builder
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "%s: %s\n", r.Program, f)
	}
	return b.String()
}

func (r *Report) addf(code string, sev Severity, subject, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{
		Code: code, Severity: sev, Subject: subject,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Check runs every pass over a compiled program. The passes run in
// cost order (structural first), and the findings are returned sorted
// by code for stable output.
func Check(prog *ir.Program) *Report {
	r := &Report{Program: prog.Name, Findings: []Finding{}, unreachable: map[string]bool{}}
	checkReferences(r, prog)
	checkKeys(r, prog)
	checkDefaults(r, prog)
	checkDeadActions(r, prog)
	checkRestrictions(r, prog)
	checkDataflow(r, prog)
	checkReachability(r, prog)
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		return a.Detail < b.Detail
	})
	return r
}

var reportCache sync.Map // *ir.Program -> *Report

// Cached returns the memoized report for a program, running Check on
// first use. The memo is keyed on the program pointer: models.Load
// returns one *ir.Program per model, so every harness over the same
// model shares one analysis.
func Cached(prog *ir.Program) *Report {
	if r, ok := reportCache.Load(prog); ok {
		return r.(*Report)
	}
	r := Check(prog)
	actual, _ := reportCache.LoadOrStore(prog, r)
	return actual.(*Report)
}
