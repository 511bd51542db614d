// Parallel, solve-avoiding test-packet generation: the data-plane
// mirror of the control plane's sharded campaign engine.
//
// Solving every coverage goal on its own (one Executor.SolveGoal per
// goal) pays one SMT check per goal per campaign. Three mechanisms cut
// that down:
//
//   - model-reuse pruning: after each SAT model, the remaining goal
//     conditions are evaluated concretely under the model (smt.Eval
//     over the hash-consed term DAG); conditions the model already
//     satisfies are covered by the same packet, skipping their solver
//     calls. This is greedy deterministic test-suite reduction — one
//     packet's path through the pipeline typically covers one goal per
//     table it traverses;
//   - parallel goal shards: the goal list is partitioned across
//     independent Executors (Builder and Solver are single-threaded by
//     design), solved on up to GOMAXPROCS goroutines. Solving proceeds
//     in rounds: each round, every shard with undecided goals solves its
//     next one; at the round barrier the obtained models' coverage
//     claims are merged in shard order against the whole goal universe,
//     so pruning stays global — a shard's model retires goals owned by
//     any shard;
//   - per-goal caching: each goal's outcome is keyed by the entries
//     that can reach it, so entry churn re-solves only affected goals
//     (see Cache).
//
// Determinism contract (as for RunParallelCampaign): the packet set and
// report are a pure function of (program, entries, options, shard
// count, cache state). The number of goroutines solving shards at once
// (GOMAXPROCS, capped at the shard count) only changes wall-clock time.
// This holds because the shard partition is a fixed slice of the
// canonical goal order, each shard's solver is private and
// deterministic, every round's task set is a pure function of the
// decided-goal state at the round barrier, and claims merge in shard
// order no matter which worker finished first.
package symbolic

import (
	"fmt"
	"runtime"
	"sync"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
	"switchv/internal/smt"
)

const (
	// DefaultGoalShards is the logical shard count for goal solving.
	// Results depend on it (it fixes the round schedule), so it is
	// deliberately decoupled from the machine: Run solves up to
	// GOMAXPROCS shards at once. Each shard pays for one symbolic
	// execution of the model, so the default stays small.
	DefaultGoalShards = 4
	// minGoalsPerShard caps the shard count on small campaigns so a
	// handful of goals does not pay for eight symbolic executions.
	minGoalsPerShard = 16
)

// GenOptions configures the parallel generator.
type GenOptions struct {
	// Mode selects the structural coverage goals.
	Mode CoverageMode
	// Enriched adds the standing "test engineer" goals (EnrichedGoals)
	// to the universe.
	Enriched bool
	// Shards is the logical goal-shard count (default
	// DefaultGoalShards, capped by minGoalsPerShard). The result
	// depends on it; the number of shards solved at once must not.
	Shards int
	// Cache, when non-nil, serves per-goal outcomes and absorbs the
	// run's results.
	Cache *Cache
	// UnreachableTables is the static preflight's proof set
	// (check.Report.UnreachableSet): table goals on these tables are
	// decided unreachable before sharding, spending no solver check.
	// Only "table:*" goals are dropped — branch goals are left to the
	// solver, since the analyzer's branch numbering does not align with
	// the executor's per-entry expansion.
	UnreachableTables map[string]bool
	// DisableWitness turns off the solver-free witness pre-pass (see
	// witness.go), forcing every goal through the solver path. Verdicts
	// are identical either way; the flag exists for ablation and
	// differential testing.
	DisableWitness bool
	// DisableSlicing turns off cone-of-influence slice restriction on
	// per-goal checks (smt.CheckSliced), forcing full-formula checks.
	// Verdicts are identical either way (slicing is sound by closure +
	// background completion); synthesized packets and pruning cascades
	// may differ, so only verdicts are comparable across this flag.
	DisableSlicing bool
}

// Generator runs parallel, solve-avoiding packet generation. Build one
// with NewGenerator, inspect GoalKeys, then Run.
type Generator struct {
	prog  *ir.Program
	store *pdpi.Store
	opts  Options
	gopts GenOptions

	ex0   *Executor
	goals []Goal // the universe, in canonical order
}

// NewGenerator symbolically executes the model once (the shard-0
// executor) and enumerates the goal universe: the mode's structural
// goals followed by the enriched goals when requested.
func NewGenerator(prog *ir.Program, store *pdpi.Store, opts Options, gopts GenOptions) (*Generator, error) {
	ex0, err := New(prog, store, opts)
	if err != nil {
		return nil, err
	}
	goals := ex0.Goals(gopts.Mode)
	if gopts.Enriched {
		goals = append(goals, ex0.EnrichedGoals()...)
	}
	return &Generator{prog: prog, store: store, opts: opts, gopts: gopts, ex0: ex0, goals: goals}, nil
}

// GoalKeys lists the goal universe in canonical order (the campaign's
// coverage denominator).
func (g *Generator) GoalKeys() []string {
	keys := make([]string, len(g.goals))
	for i, goal := range g.goals {
		keys[i] = goal.Key
	}
	return keys
}

// goalOutcome is one decided goal: a packet or unreachability.
type goalOutcome struct {
	pkt *TestPacket // nil = unreachable
	how int         // how the goal was decided
}

const (
	bySolve = iota
	byPrune
	byCache
	byPrecheck
	byWitness
	byWitnessUnsat
)

// shardState is one logical shard's solving context, owned by at most
// one worker at a time (handed over only across round barriers).
type shardState struct {
	ex     *Executor
	conds  []*smt.Term // universe conditions in this executor's own DAG
	queue  []int       // goal indices this shard owns, in canonical order
	pos    int
	checks int  // NumChecks at construction
	sliced bool // use the slice-restricted solver path
}

// roundResult is one shard's contribution to a round: the verdict on
// its own goal plus the universe goals its model also satisfies.
type roundResult struct {
	goal int
	err  error
	sat  bool
	pkt  *TestPacket
	hits []int // undecided-at-round-start goal indices the model satisfies
}

// Run generates packets for every reachable goal. Packets are returned
// in canonical goal order, one per covered goal (pruned goals share
// another goal's packet bytes under their own key).
func (g *Generator) Run() ([]TestPacket, Report, error) {
	rep := Report{Goals: len(g.goals)}
	outcomes := make([]goalOutcome, len(g.goals))
	decided := make([]bool, len(g.goals))

	// Preflight-proved goals first: a table the static analyzer proved
	// unreachable can never satisfy an entry or default goal, whatever
	// the entry set — decide them without a solver check (and before
	// the cache probe, so a fully-pruned campaign skips fingerprinting
	// them too).
	if len(g.gopts.UnreachableTables) > 0 {
		for i, goal := range g.goals {
			if t := goalTable(goal.Key); t != "" && g.gopts.UnreachableTables[t] {
				outcomes[i] = goalOutcome{how: byPrecheck}
				decided[i] = true
			}
		}
	}

	// Per-goal cache probe (precheck-decided goals never touch the
	// cache in either direction: their verdict is free to recompute).
	var fps []string
	if g.gopts.Cache != nil {
		fps = g.ex0.goalFingerprints(g.goals, decided)
		for i := range g.goals {
			if decided[i] {
				continue
			}
			if pkt, ok := g.gopts.Cache.GetGoal(fps[i]); ok {
				outcomes[i] = goalOutcome{pkt: pkt, how: byCache}
				decided[i] = true
			}
		}
	}
	// Solver-free witness pre-pass, sequential on the shard-0 executor:
	// worker- and engine-independent by construction, so the determinism
	// contract is untouched. Checks it spends (fallback solves) happen
	// before the shard snapshots below, so they are accounted separately.
	prepassChecks := 0
	if !g.gopts.DisableWitness {
		startChecks := g.ex0.solver.NumChecks
		if err := g.witnessPrepass(decided, outcomes); err != nil {
			return nil, rep, err
		}
		prepassChecks = g.ex0.solver.NumChecks - startChecks
	}

	var missing []int
	for i := range g.goals {
		if !decided[i] {
			missing = append(missing, i)
		}
	}

	// Shard the undecided goals contiguously in canonical order.
	shards := g.gopts.Shards
	if shards <= 0 {
		shards = DefaultGoalShards
	}
	if max := (len(missing) + minGoalsPerShard - 1) / minGoalsPerShard; shards > max {
		shards = max
	}
	rep.Shards = shards
	workers := max(1, min(runtime.GOMAXPROCS(0), shards))

	states := make([]*shardState, shards)
	if shards > 0 {
		// Build the shard executors concurrently (shard 0 reuses the
		// generator's); each resolves the universe's conditions into its
		// own term DAG once.
		errs := make([]error, shards)
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for s := 0; s < shards; s++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(s int) {
				defer func() { <-sem; wg.Done() }()
				ex := g.ex0
				if s != 0 {
					var err error
					if ex, err = New(g.prog, g.store, g.opts); err != nil {
						errs[s] = fmt.Errorf("symbolic: shard %d executor: %w", s, err)
						return
					}
				}
				lo := s * len(missing) / shards
				hi := (s + 1) * len(missing) / shards
				states[s] = &shardState{
					ex:     ex,
					conds:  condsFor(ex, g.goals),
					queue:  missing[lo:hi],
					checks: ex.solver.NumChecks,
					sliced: !g.gopts.DisableSlicing,
				}
			}(s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, rep, err
			}
		}
	}

	// Solve in rounds: every shard with an undecided goal checks its
	// next one concurrently; the barrier merges verdicts and model
	// coverage claims in shard order.
	sem := make(chan struct{}, workers)
	for {
		// Round-start snapshot of the undecided universe, shared
		// read-only by every task this round.
		var undecided []int
		for i := range g.goals {
			if !decided[i] {
				undecided = append(undecided, i)
			}
		}
		results := make([]*roundResult, shards)
		var wg sync.WaitGroup
		tasks := 0
		for s, st := range states {
			for st.pos < len(st.queue) && decided[st.queue[st.pos]] {
				st.pos++
			}
			if st.pos >= len(st.queue) {
				continue
			}
			goal := st.queue[st.pos]
			st.pos++
			tasks++
			wg.Add(1)
			sem <- struct{}{}
			go func(s int, st *shardState, goal int) {
				defer func() { <-sem; wg.Done() }()
				results[s] = solveRound(st, goal, g.goals, undecided)
			}(s, st, goal)
		}
		if tasks == 0 {
			break
		}
		wg.Wait()
		for _, r := range results {
			if r == nil {
				continue
			}
			if r.err != nil {
				return nil, rep, r.err
			}
			// The shard's own goal first (a lower shard's model may have
			// claimed it already this round — its check is spent either
			// way, the lower shard's packet wins deterministically).
			if !decided[r.goal] {
				decided[r.goal] = true
				if r.sat {
					outcomes[r.goal] = goalOutcome{pkt: r.pkt, how: bySolve}
				} else {
					outcomes[r.goal] = goalOutcome{how: bySolve}
				}
			}
			for _, j := range r.hits {
				if decided[j] {
					continue
				}
				decided[j] = true
				outcomes[j] = goalOutcome{
					pkt: &TestPacket{GoalKey: g.goals[j].Key, Port: r.pkt.Port, Data: r.pkt.Data},
					how: byPrune,
				}
			}
		}
	}

	rep.SMTChecks += prepassChecks
	if shards == 0 {
		// Everything was decided before sharding (cache plus witness
		// pre-pass): only the shard-0 executor was built, and it has
		// checked nothing since the pre-pass.
		states = []*shardState{{ex: g.ex0, checks: g.ex0.solver.NumChecks}}
	}
	for _, st := range states {
		rep.SMTChecks += st.ex.solver.NumChecks - st.checks
		rep.SATStats.Add(st.ex.solver.Stats())
		rep.Terms += st.ex.b.NumTerms()
		rep.Clauses += st.ex.solver.NumClauses
		rep.Vars += st.ex.solver.NumVars()
		rep.CNFReuse += st.ex.solver.CNFReuse
		rep.SlicedAsserts += st.ex.solver.SlicedAsserts
		rep.SlicedBits += st.ex.solver.SlicedBits
	}

	var packets []TestPacket
	for i := range g.goals {
		out := outcomes[i]
		switch out.how {
		case bySolve:
			rep.Solved++
		case byPrune:
			rep.Pruned++
		case byCache:
			rep.Cached++
		case byPrecheck:
			rep.Precheck++
		case byWitness:
			rep.Witnessed++
		case byWitnessUnsat:
			rep.WitnessUnsat++
		}
		if out.pkt != nil {
			rep.Covered++
			packets = append(packets, *out.pkt)
		} else {
			rep.Unreachable++
		}
		if g.gopts.Cache != nil && out.how != byCache && out.how != byPrecheck {
			g.gopts.Cache.PutGoal(fps[i], out.pkt)
		}
	}
	return packets, rep, nil
}

// solveRound checks one goal on the shard's private solver and, on SAT,
// extracts the packet and evaluates the model against every goal
// undecided at the round start — the global pruning claims merged at
// the barrier.
func solveRound(st *shardState, goal int, universe []Goal, undecided []int) *roundResult {
	r := &roundResult{goal: goal}
	pkt, model, err := st.ex.solve(Goal{Key: universe[goal].Key, Cond: st.conds[goal]}, st.sliced)
	if err != nil {
		r.err = err
		return r
	}
	if pkt == nil {
		return r
	}
	r.sat, r.pkt = true, pkt
	for _, j := range undecided {
		if j != goal && smt.EvalBool(model, st.conds[j]) {
			r.hits = append(r.hits, j)
		}
	}
	return r
}

// condsFor rebinds the goal universe's conditions to an executor's own
// term DAG (every executor over the same program and store enumerates
// identical keys; an unknown key is unreachable by construction).
func condsFor(ex *Executor, goals []Goal) []*smt.Term {
	enriched := map[string]*smt.Term{}
	for _, g := range ex.EnrichedGoals() {
		enriched[g.Key] = g.Cond
	}
	conds := make([]*smt.Term, len(goals))
	for i, g := range goals {
		switch {
		case ex.trace[g.Key] != nil:
			conds[i] = ex.trace[g.Key]
		case enriched[g.Key] != nil:
			conds[i] = enriched[g.Key]
		default:
			conds[i] = ex.b.False()
		}
	}
	return conds
}

// GeneratePacketsParallel is the one-shot convenience wrapper around
// NewGenerator + Run.
func GeneratePacketsParallel(prog *ir.Program, store *pdpi.Store, opts Options, gopts GenOptions) ([]TestPacket, Report, error) {
	gen, err := NewGenerator(prog, store, opts, gopts)
	if err != nil {
		return nil, Report{}, err
	}
	return gen.Run()
}
