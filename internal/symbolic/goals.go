package symbolic

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"switchv/internal/p4/dataflow"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
	"switchv/internal/sat"
	"switchv/internal/smt"
)

// CoverageMode selects which coverage goals to generate.
type CoverageMode int

// Coverage modes (§5 "Coverage Constraints").
const (
	// CoverEntries poses one goal per installed entry plus one per table
	// default action: the branch-coverage criterion used in the paper's
	// evaluation ("hit every reachable input table entry at least once").
	CoverEntries CoverageMode = iota
	// CoverBranches additionally covers both sides of every conditional.
	CoverBranches
)

// Goal is a coverage assertion over X, Y and T.
type Goal struct {
	Key  string
	Cond *smt.Term
}

// Goals enumerates the coverage goals for a mode.
func (ex *Executor) Goals(mode CoverageMode) []Goal {
	var goals []Goal
	for _, key := range ex.keys {
		isBranch := strings.HasPrefix(key, "branch:")
		if isBranch && mode != CoverBranches {
			continue
		}
		goals = append(goals, Goal{Key: key, Cond: ex.trace[key]})
	}
	return goals
}

// TestPacket is a synthesized input packet for one coverage goal.
type TestPacket struct {
	GoalKey string
	Port    uint16
	Data    []byte
}

// SolveGoal asks the solver for a packet satisfying the goal. It returns
// (nil, false, nil) when the goal is unreachable (UNSAT). It reads only
// the input variables off the solver and captures no model.
func (ex *Executor) SolveGoal(g Goal) (*TestPacket, bool, error) {
	if ok, err := ex.check(g, false); !ok {
		return nil, false, err
	}
	pkt, err := ex.packetFrom(ex.solver.ValueBV, g.Key)
	return pkt, err == nil, err
}

// coneSeed returns the slice seed for a goal: the input variables of
// the goal table's dataflow cone of influence. Branch and enriched
// goals return nil — their conditions carry their own variable support,
// which CheckSliced seeds the closure with anyway.
func (ex *Executor) coneSeed(goalKey string) []*smt.Term {
	table := goalTable(goalKey)
	if table == "" {
		return nil
	}
	cone := dataflow.Cached(ex.prog).Cone(table)
	if cone == nil {
		return nil
	}
	ids := make([]int, 0, len(cone.Fields))
	for id := range cone.Fields {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	seed := make([]*smt.Term, len(ids))
	for i, id := range ids {
		seed[i] = ex.inputs[id]
	}
	return seed
}

// solve runs one SMT check for the goal, on its cone-of-influence slice
// when sliced: only the assertions inside the slice's closure are
// activated (and CNF'd), and the model is completed from the canonical
// background outside it. On SAT it captures the check's model once and
// returns it with the packet read off it; both are nil when the goal is
// unreachable.
func (ex *Executor) solve(g Goal, sliced bool) (*TestPacket, *smt.Model, error) {
	if ok, err := ex.check(g, sliced); !ok {
		return nil, nil, err
	}
	m := ex.solver.Model()
	pkt, err := ex.packetFrom(m.Var, g.Key)
	if err != nil {
		return nil, nil, err
	}
	return pkt, m, nil
}

// check runs the goal's SMT check and reports whether it is SAT.
func (ex *Executor) check(g Goal, sliced bool) (bool, error) {
	var res sat.Result
	if sliced {
		res = ex.solver.CheckSliced(ex.coneSeed(g.Key), g.Cond)
	} else {
		res = ex.solver.CheckAssuming(g.Cond)
	}
	switch res {
	case sat.Sat:
		return true, nil
	case sat.Unsat:
		return false, nil
	}
	return false, fmt.Errorf("symbolic: solver returned unknown for %s", g.Key)
}

// packetFrom deparses the input variables' values, read through val,
// into packet bytes. val is the solver's, a captured model's, or a
// witness model's (confirmed by concrete evaluation, so its packet
// costs no SMT check).
func (ex *Executor) packetFrom(val func(*smt.Term) value.V, goalKey string) (*TestPacket, error) {
	fields := make([]value.V, len(ex.prog.Fields))
	for i, f := range ex.prog.Fields {
		fields[i] = val(ex.inputs[i]).WithWidth(f.Width)
	}
	data, err := bmv2DeparseFields(ex.prog, fields, []byte("switchv-test"))
	if err != nil {
		return nil, fmt.Errorf("symbolic: deparsing model for %s: %w", goalKey, err)
	}
	port := uint16(0)
	if f, ok := ex.prog.FieldByName(ir.FieldIngressPort); ok {
		port = uint16(fields[f.ID].Uint64())
	}
	return &TestPacket{GoalKey: goalKey, Port: port, Data: data}, nil
}

// Report summarizes a generation run.
type Report struct {
	Goals       int
	Covered     int
	Unreachable int
	// Solved, Pruned, Cached and Precheck classify how each goal was
	// decided: by its own SMT check, by reusing an earlier goal's SAT
	// model (the solve-avoiding path), from the per-goal cache, or by
	// the static preflight's unreachability proof (no solver call at
	// all).
	Solved   int
	Pruned   int
	Cached   int
	Precheck int
	// Witnessed counts goals decided by a solver-free synthesized
	// witness: a candidate packet built by prefix arithmetic over the
	// goal's key constraints and confirmed by concrete evaluation of the
	// full path condition (no SMT check). WitnessUnsat counts goals the
	// witness layer proved unreachable by key arithmetic alone.
	Witnessed    int
	WitnessUnsat int
	// SMTChecks counts the CheckAssuming calls actually issued; the gap
	// to Goals is the work pruning and caching avoided.
	SMTChecks int
	// Shards is the logical goal-shard count (0 when every goal was
	// decided before sharding). Results depend on it; worker count never
	// changes them.
	Shards int
	// SATStats aggregates the decision-procedure work, summed across
	// every shard solver of a parallel run.
	SATStats sat.Stats
	// Terms and Clauses measure formula size, and Vars the SAT variables
	// allocated — summed across shard solvers.
	Terms   int
	Clauses int
	Vars    int
	// CNFReuse counts blast-memo hits summed across shard solvers: CNF
	// encodings requested again and served from the memo instead of
	// being rebuilt — the shared-program-prefix reuse of the
	// incremental solving path.
	CNFReuse int
	// SlicedAsserts counts pipeline assertions excluded from sliced
	// per-goal checks (summed per check across shard solvers), and
	// SlicedBits the input bits those checks left outside their
	// cone-of-influence slice — work never CNF'd or constrained.
	SlicedAsserts int
	SlicedBits    int
}

// DefaultCacheCap bounds the per-goal cache (§6.3 "Caching"). At one
// entry per goal it comfortably holds several campaigns of the paper's
// largest instance while keeping memory bounded under entry churn.
const DefaultCacheCap = 8192

// Cache memoizes the per-goal generation outcome — a synthesized packet
// or an unreachability verdict — keyed by GoalFingerprint (§6.3
// "Caching"). Keys cover only the entries that can influence the goal's
// guard, so a small entry delta re-solves just the affected goals
// instead of invalidating the whole campaign. Eviction is LRU with a
// fixed capacity.
type Cache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	hits   int
	misses int
}

type cacheItem struct {
	fp  string
	pkt *TestPacket // nil records an unreachable goal
}

// NewCache returns an empty cache with the default capacity.
func NewCache() *Cache { return NewCacheCap(DefaultCacheCap) }

// NewCacheCap returns an empty cache holding at most n goal outcomes.
func NewCacheCap(n int) *Cache {
	if n < 1 {
		n = 1
	}
	return &Cache{cap: n, ll: list.New(), items: map[string]*list.Element{}}
}

// GoalFingerprint computes a goal's cache key from the model, the
// executor options, the goal identity, and the entries that can reach
// it (Executor.DepEntries). It is the reference definition: the
// generator computes the same keys with Executor.goalFingerprints.
func GoalFingerprint(prog *ir.Program, opts Options, goalKey string, deps []*pdpi.Entry) string {
	return goalFingerprint(prog, opts, goalKey, depsDigest(deps, depRow))
}

// goalFingerprint hashes the goal's identity with its dependency set's
// digest (depsDigest).
func goalFingerprint(prog *ir.Program, opts Options, goalKey, deps string) string {
	maxPort := opts.MaxPort
	if maxPort == 0 {
		maxPort = 32
	}
	h := sha256.New()
	fmt.Fprintf(h, "v3;model:%s;maxport:%d;goal:%s;deps:%s", prog.Name, maxPort, goalKey, deps)
	return hex.EncodeToString(h.Sum(nil))
}

// depRow renders a dependency entry losslessly: its match key plus its
// action with every action-set member's arguments and weight.
func depRow(e *pdpi.Entry) string { return e.Key() + " => " + e.ActionString() }

// depsDigest hashes a dependency set's rows (row renders one entry, as
// depRow does) in sorted order, so the digest depends on the set, not
// on the store's insertion order.
func depsDigest(deps []*pdpi.Entry, row func(*pdpi.Entry) string) string {
	rows := make([]string, len(deps))
	for i, e := range deps {
		rows[i] = row(e)
	}
	sort.Strings(rows)
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{';'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goalFingerprints returns each goal's GoalFingerprint(prog, opts,
// goal.Key, ex.DepEntries(goal.Key)), skipping the goals marked in skip
// (their key stays ""). A goal's dependency set depends only on its
// table's last-application cutoff, so a round has at most one set per
// table: each set's digest is computed once, and each entry rendered
// once.
func (ex *Executor) goalFingerprints(goals []Goal, skip []bool) []string {
	rendered := map[*pdpi.Entry]string{}
	row := func(e *pdpi.Entry) string {
		r, ok := rendered[e]
		if !ok {
			r = depRow(e)
			rendered[e] = r
		}
		return r
	}
	digests := map[int]string{}
	fps := make([]string, len(goals))
	for i, goal := range goals {
		if skip[i] {
			continue
		}
		cutoff := ex.depCutoff(goal.Key)
		d, ok := digests[cutoff]
		if !ok {
			d = depsDigest(ex.depEntries(cutoff), row)
			digests[cutoff] = d
		}
		fps[i] = goalFingerprint(ex.prog, ex.opts, goal.Key, d)
	}
	return fps
}

// Hits and Misses report cache effectiveness.
func (c *Cache) Hits() int   { c.mu.Lock(); defer c.mu.Unlock(); return c.hits }
func (c *Cache) Misses() int { c.mu.Lock(); defer c.mu.Unlock(); return c.misses }

// Len returns the number of cached goal outcomes.
func (c *Cache) Len() int { c.mu.Lock(); defer c.mu.Unlock(); return c.ll.Len() }

// Cap returns the cache capacity.
func (c *Cache) Cap() int { return c.cap }

// GetGoal returns the cached outcome for a per-goal fingerprint:
// (packet, true) for a covered goal, (nil, true) for an unreachable
// one, (nil, false) on a miss. A hit refreshes the entry's LRU
// position.
func (c *Cache) GetGoal(fp string) (*TestPacket, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[fp]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).pkt, true
}

// PutGoal stores a goal outcome (pkt == nil records unreachability),
// evicting the least-recently-used entry when full.
func (c *Cache) PutGoal(fp string, pkt *TestPacket) {
	if pkt != nil {
		cp := *pkt
		pkt = &cp
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		el.Value.(*cacheItem).pkt = pkt
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheItem).fp)
	}
	c.items[fp] = c.ll.PushFront(&cacheItem{fp: fp, pkt: pkt})
}

// EnrichedGoals returns the "test engineer" goal set (§5 "Coverage
// Constraints" middle ground): targeted assertions over X and Y beyond
// structural coverage — each disposition, forwarding with interesting
// header values (nonzero DSCP, broadcast destination, TTL at the trap
// boundary), and a controller copy.
func (ex *Executor) EnrichedGoals() []Goal {
	b := ex.b
	goals := []Goal{
		{Key: "enriched:punt", Cond: ex.PuntCond()},
		{Key: "enriched:drop", Cond: ex.DropCond()},
		{Key: "enriched:forward", Cond: ex.ForwardCond()},
	}
	field := func(name string) (*smt.Term, bool) {
		f, ok := ex.prog.HeaderField(name)
		if !ok {
			return nil, false
		}
		return ex.inputs[f.ID], true
	}
	if dscp, ok := field("ipv4.dscp"); ok {
		goals = append(goals, Goal{
			Key:  "enriched:forward-dscp-nonzero",
			Cond: b.And(ex.ForwardCond(), b.Ne(dscp, b.ConstUint(0, dscp.Width()))),
		})
	}
	if dst, ok := field("ipv4.dst_addr"); ok {
		cond := b.And(ex.ForwardCond(), b.Eq(dst, b.ConstUint(0xffffffff, 32)))
		// Tunnel-capable models could satisfy this with a GRE packet whose
		// broadcast outer header is decapsulated away; require a plain
		// packet so the L3 lookup actually sees the broadcast address.
		if gre, ok := field("gre.$valid"); ok {
			cond = b.And(cond, b.Eq(gre, b.ConstUint(0, 1)))
		}
		goals = append(goals, Goal{Key: "enriched:forward-broadcast", Cond: cond})
	}
	if ttl, ok := field("ipv4.ttl"); ok {
		goals = append(goals, Goal{
			Key:  "enriched:forward-ttl2",
			Cond: b.And(ex.ForwardCond(), b.Eq(ttl, b.ConstUint(2, ttl.Width()))),
		})
	}
	if copyF, ok := ex.prog.FieldByName(ir.FieldCopy); ok {
		goals = append(goals, Goal{
			Key:  "enriched:copy-to-cpu",
			Cond: b.Eq(ex.outputs[copyF.ID], b.ConstUint(1, 1)),
		})
	}
	return goals
}
