// Benchmarks regenerating the paper's evaluation (one per table/figure,
// plus ablations for the design choices called out in DESIGN.md §5). The
// replay command prints the same data as formatted tables; these report
// machine-readable metrics.
package switchv

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"switchv/internal/bmv2"
	"switchv/internal/bugdb"
	"switchv/internal/experiments"
	"switchv/internal/fuzzer"
	"switchv/internal/oracle"
	"switchv/internal/p4/check"
	"switchv/internal/p4/compile"
	"switchv/internal/p4/constraints"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
	"switchv/internal/switchv"
	"switchv/internal/symbolic"
	"switchv/internal/testutil"
	"switchv/internal/trivial"
	"switchv/internal/workload"
	"switchv/models"
)

// quickOpts keeps per-fault campaigns short enough to iterate over the
// whole catalog in one benchmark run.
var quickOpts = experiments.Options{FuzzRequests: 200, FuzzUpdates: 25, Entries: 320}

// BenchmarkTable1 runs the live fault-injection campaign behind Table 1:
// every catalogued bug with an injectable fault is hunted by both tools.
func BenchmarkTable1(b *testing.B) {
	for _, stack := range bugdb.Stacks() {
		b.Run(stack, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, dets, err := experiments.Table1Live(stack, quickOpts)
				if err != nil {
					b.Fatal(err)
				}
				found := 0
				for _, r := range rows {
					found += r.Bugs
				}
				b.ReportMetric(float64(found), "bugs-detected")
				b.ReportMetric(float64(len(dets)), "bugs-injected")
			}
		})
	}
}

// BenchmarkTable2 runs the trivial suite against every injected fault (the
// "would simpler testing have caught it?" experiment).
func BenchmarkTable2(b *testing.B) {
	for _, stack := range bugdb.Stacks() {
		b.Run(stack, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				counts, total, err := experiments.Table2Live(stack, quickOpts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(total-counts[""]), "found-by-trivial")
				b.ReportMetric(float64(counts[""]), "not-found")
			}
		})
	}
}

// table3Case describes one Table 3 row (Inst1/Inst2 at the paper's entry
// counts).
var table3Cases = []struct {
	name    string
	role    string
	entries int
}{
	{"Inst1", "middleblock", 798},
	{"Inst2", "wan", 1314},
}

// BenchmarkTable3Generation measures cold p4-symbolic test-packet
// generation (the "Generation" column) with the generator options
// RunDataPlane uses: entry coverage plus the enriched goals, with the
// preflight's unreachable tables pruned.
func BenchmarkTable3Generation(b *testing.B) {
	for _, c := range table3Cases {
		b.Run(c.name, func(b *testing.B) {
			prog := models.MustLoad(c.role)
			entries := workload.MustEntries(prog, c.entries, 42)
			store := pdpi.NewStore()
			for _, e := range entries {
				if err := store.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
			gopts := symbolic.GenOptions{Mode: symbolic.CoverEntries, Enriched: true,
				UnreachableTables: check.Cached(prog).UnreachableSet()}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pkts, rep, err := symbolic.GeneratePacketsParallel(prog, store, symbolic.Options{}, gopts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Goals), "goals")
				b.ReportMetric(float64(rep.Covered), "covered")
				b.ReportMetric(float64(len(pkts)), "packets")
			}
		})
	}
}

// BenchmarkTable3GenerationCached measures the warm-cache path (the "(w/c)"
// column): same model and entries, every goal outcome served from the
// per-goal cache — no SMT checks, one symbolic execution for the
// fingerprints.
func BenchmarkTable3GenerationCached(b *testing.B) {
	for _, c := range table3Cases {
		b.Run(c.name, func(b *testing.B) {
			prog := models.MustLoad(c.role)
			entries := workload.MustEntries(prog, c.entries, 42)
			store := pdpi.NewStore()
			for _, e := range entries {
				if err := store.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
			cache := symbolic.NewCache()
			gopts := symbolic.GenOptions{Mode: symbolic.CoverEntries, Cache: cache}
			if _, _, err := symbolic.GeneratePacketsParallel(prog, store, symbolic.Options{}, gopts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rep, err := symbolic.GeneratePacketsParallel(prog, store, symbolic.Options{}, gopts)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Cached != rep.Goals || rep.SMTChecks != 0 {
					b.Fatalf("warm run not fully cached: %+v", rep)
				}
			}
		})
	}
}

// BenchmarkDataPlaneGen is the ablation for the parallel, solve-avoiding
// generator (DESIGN.md §5c): serial one-check-per-goal baseline vs
// model-reuse pruning at workers=1 vs pruning+parallelism at workers=4,
// over the full goal universe RunDataPlane solves (branch coverage plus
// the enriched goals). Two middleblock instances stress different
// regimes:
//
//   - small (150 entries): the check-reduction regime. Pruning headroom
//     is bounded by the mutually-disjoint big tables (each ipv4/ipv6
//     entry genuinely needs its own packet); at 798 entries those are
//     ~63% of all goals and no pruner can beat ~31% reduction, while at
//     150 the downstream prunable mass (wcmp/nexthop/neighbor/rif
//     chains, branches, enriched) clears 40%.
//   - large (798 entries, the Table 3 Inst1 workload): the wall-clock
//     regime, where solving dominates the per-shard symbolic-execution
//     cost and parallel solving pays off. Its serial row is the pure
//     solver path: one SAT check per goal.
//
// The deterministic gates on these runs (exact check counts, the 40%
// check reduction, identity across worker counts, slicing changing no
// verdict) run in go test as symbolic.TestGenerationGates. The
// wall-clock gate stays here: on a >=4-CPU machine pruning+parallelism
// beat the serial baseline's wall-clock by >=2x (large).
func BenchmarkDataPlaneGen(b *testing.B) {
	prog := models.Middleblock()
	const mode = symbolic.CoverBranches
	mkStore := func(b *testing.B, n int) *pdpi.Store {
		store := pdpi.NewStore()
		for _, e := range workload.MustEntries(prog, n, 42) {
			if err := store.Insert(e); err != nil {
				b.Fatal(err)
			}
		}
		return store
	}
	runSerial := func(b *testing.B, store *pdpi.Store) (elapsed time.Duration) {
		for i := 0; i < b.N; i++ {
			start := time.Now()
			ex, err := symbolic.New(prog, store, symbolic.Options{})
			if err != nil {
				b.Fatal(err)
			}
			// One check per goal over the same universe the generator
			// covers: structural goals of the mode plus enriched goals.
			goals := append(ex.Goals(mode), ex.EnrichedGoals()...)
			for _, g := range goals {
				if _, _, err := ex.SolveGoal(g); err != nil {
					b.Fatal(err)
				}
			}
			elapsed = time.Since(start)
			b.ReportMetric(float64(len(goals)), "smt-checks")
			b.ReportMetric(float64(len(goals)), "goals")
		}
		return elapsed
	}
	runParallel := func(b *testing.B, store *pdpi.Store, workers int) (elapsed time.Duration) {
		for i := 0; i < b.N; i++ {
			start := time.Now()
			_, rep, err := symbolic.GeneratePacketsParallel(prog, store, symbolic.Options{},
				symbolic.GenOptions{Mode: mode, Enriched: true, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			elapsed = time.Since(start)
			b.ReportMetric(float64(rep.SMTChecks), "smt-checks")
			b.ReportMetric(float64(rep.Pruned), "pruned")
			b.ReportMetric(float64(rep.Witnessed), "witnessed")
			b.ReportMetric(float64(rep.WitnessUnsat), "witness-unsat")
			b.ReportMetric(float64(rep.Goals), "goals")
			b.ReportMetric(float64(rep.SlicedAsserts), "sliced-asserts")
			b.ReportMetric(float64(rep.SlicedBits), "sliced-bits")
		}
		return elapsed
	}
	var serialL, pruned4L time.Duration
	small, large := mkStore(b, 150), mkStore(b, 798)
	b.Run("small/serial", func(b *testing.B) { runSerial(b, small) })
	b.Run("small/pruned-workers=1", func(b *testing.B) { runParallel(b, small, 1) })
	b.Run("small/pruned-workers=4", func(b *testing.B) { runParallel(b, small, 4) })
	b.Run("large/serial", func(b *testing.B) { serialL = runSerial(b, large) })
	b.Run("large/pruned-workers=1", func(b *testing.B) { runParallel(b, large, 1) })
	b.Run("large/pruned-workers=4", func(b *testing.B) { pruned4L = runParallel(b, large, 4) })
	if serialL == 0 || pruned4L == 0 {
		return
	}

	// Wall-clock gate: >=2x over the serial baseline on >=4 CPUs.
	speedup := float64(serialL) / float64(pruned4L)
	b.ReportMetric(speedup, "speedup-x")
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
	if runtime.NumCPU() >= 4 && speedup < 2 {
		b.Fatalf("pruned+parallel speedup %.2fx over serial on a %d-CPU machine, want >= 2x", speedup, runtime.NumCPU())
	}
}

// BenchmarkTable3Testing measures the differential execution phase (the
// "Testing" column): run each generated packet against the switch and the
// reference simulator's behavior set.
func BenchmarkTable3Testing(b *testing.B) {
	for _, c := range table3Cases {
		b.Run(c.name, func(b *testing.B) {
			prog := models.MustLoad(c.role)
			info := p4info.New(prog)
			entries := workload.MustEntries(prog, c.entries, 42)
			cache := symbolic.NewCache()
			// Pre-generate once so iterations measure testing only.
			sw := switchsim.New(c.role)
			h := switchv.New(info, sw, sw)
			if err := h.PushPipeline(); err != nil {
				b.Fatal(err)
			}
			if _, err := h.RunDataPlane(entries, switchv.DataPlaneOptions{Cache: cache}); err != nil {
				b.Fatal(err)
			}
			sw.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw := switchsim.New(c.role)
				h := switchv.New(info, sw, sw)
				if err := h.PushPipeline(); err != nil {
					b.Fatal(err)
				}
				rep, err := h.RunDataPlane(entries, switchv.DataPlaneOptions{Cache: cache})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.CacheHit {
					b.Fatal("expected cached packets")
				}
				if n := len(rep.Incidents); n > 0 {
					b.Fatalf("%d incidents on a clean switch: %s", n, rep.Incidents[0])
				}
				b.ReportMetric(rep.TestElapsed.Seconds(), "testing-s")
				b.ReportMetric(float64(rep.Packets), "packets")
				sw.Close()
			}
		})
	}
}

// BenchmarkTable3Fuzzer measures p4-fuzzer throughput (the "Entries/s"
// rows of Table 3).
func BenchmarkTable3Fuzzer(b *testing.B) {
	for _, c := range table3Cases {
		b.Run(c.name, func(b *testing.B) {
			info := p4info.New(models.MustLoad(c.role))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw := switchsim.New(c.role)
				h := switchv.New(info, sw, sw)
				if err := h.PushPipeline(); err != nil {
					b.Fatal(err)
				}
				rep, err := h.RunControlPlane(fuzzer.Options{
					Seed: 42, NumRequests: 100, UpdatesPerRequest: 50,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Incidents) > 0 {
					b.Fatalf("incidents on clean switch: %s", rep.Incidents[0])
				}
				b.ReportMetric(rep.EntriesPerSecond(), "entries/s")
				b.ReportMetric(float64(rep.Updates), "entries")
				sw.Close()
			}
		})
	}
}

// BenchmarkFigure7 measures the days-to-resolution aggregation and renders
// the histogram (the data itself is catalog metadata; see DESIGN.md §2).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, unresolved := bugdb.Figure7()
		if unresolved != 9 || len(rows) != 12 {
			b.Fatal("histogram shape")
		}
		within14, within5 := bugdb.HeadlineStats()
		b.ReportMetric(100*within14, "pct-within-14d")
		b.ReportMetric(100*within5, "pct-within-5d")
	}
}

// BenchmarkAblationTraceForking quantifies §5 "Trace Isolation": the
// guarded single-pass encoding grows linearly in entries, while per-trace
// forking would enumerate the product of per-table entry counts. We report
// both the measured term count and the (astronomically larger) number of
// paths a KLEE-style executor would fork.
func BenchmarkAblationTraceForking(b *testing.B) {
	for _, n := range []int{100, 400, 798} {
		b.Run(byEntries(n), func(b *testing.B) {
			prog := models.Middleblock()
			entries := workload.MustEntries(prog, n, 42)
			store := pdpi.NewStore()
			for _, e := range entries {
				if err := store.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
			// Paths a forking executor would explore: the product over
			// applied tables of (entries+1), capped to avoid overflow.
			paths := 1.0
			for _, t := range prog.Tables {
				paths *= float64(store.TableLen(t.Name) + 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex, err := symbolic.New(prog, store, symbolic.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ex.Builder().NumTerms()), "guarded-terms")
				b.ReportMetric(paths, "forked-paths")
			}
		})
	}
}

func byEntries(n int) string {
	switch n {
	case 100:
		return "100entries"
	case 400:
		return "400entries"
	default:
		return "798entries"
	}
}

// BenchmarkAblationNaiveFuzz contrasts §4.2's mutation-based generation
// with naive random requests: the fraction of requests that get past the
// switch's first (syntactic) check layer, i.e. how deep into the control
// space each strategy reaches.
func BenchmarkAblationNaiveFuzz(b *testing.B) {
	prog := models.Middleblock()
	info := p4info.New(prog)
	const perIter = 2000

	b.Run("naive-random", func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < b.N; i++ {
			deep := 0
			for j := 0; j < perIter; j++ {
				te := p4rt.TableEntry{
					TableID:  rng.Uint32(),
					Priority: int32(rng.Intn(100)),
				}
				for k := 0; k < rng.Intn(3); k++ {
					te.Match = append(te.Match, p4rt.FieldMatch{
						FieldID: rng.Uint32() % 16,
						Exact:   &p4rt.ExactMatch{Value: []byte{byte(rng.Intn(255) + 1)}},
					})
				}
				te.Action.Action = &p4rt.Action{ActionID: rng.Uint32()}
				if _, err := p4rt.FromWire(info, &te); err == nil {
					deep++
				}
			}
			b.ReportMetric(100*float64(deep)/perIter, "pct-past-syntax")
		}
	})
	b.Run("mutation-based", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := fuzzer.New(info, fuzzer.Options{Seed: 9, MutateFraction: 1.0})
			deep := 0
			for j := 0; j < perIter; j++ {
				gu, err := f.GenerateUpdate()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p4rt.FromWire(info, &gu.Update.Entry); err == nil {
					deep++
				}
			}
			b.ReportMetric(100*float64(deep)/perIter, "pct-past-syntax")
		}
	})
}

// BenchmarkAblationOracle quantifies §4.3: tracking every valid post-state
// of a batch explodes with the number of may-reject updates (2^k states),
// while the read-back oracle keeps exactly one.
func BenchmarkAblationOracle(b *testing.B) {
	prog := models.Middleblock()
	info := p4info.New(prog)
	vrf, _ := info.TableByName("vrf_table")
	mkInsert := func(id byte) p4rt.Update {
		return p4rt.Update{Type: p4rt.Insert, Entry: p4rt.TableEntry{
			TableID: vrf.ID,
			Match:   []p4rt.FieldMatch{{FieldID: 1, Exact: &p4rt.ExactMatch{Value: []byte{id}}}},
			Action:  p4rt.TableAction{Action: &p4rt.Action{ActionID: prog.NoAction.ID}},
		}}
	}
	for _, k := range []int{4, 8, 12} {
		b.Run(byK(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// State-set tracking: each may-reject update forks the set.
				states := []*pdpi.Store{pdpi.NewStore()}
				for j := 0; j < k; j++ {
					u := mkInsert(byte(j + 1))
					e, err := p4rt.FromWire(info, &u.Entry)
					if err != nil {
						b.Fatal(err)
					}
					var next []*pdpi.Store
					for _, s := range states {
						accepted := s.Clone()
						if err := accepted.Insert(e.Clone()); err != nil {
							b.Fatal(err)
						}
						next = append(next, accepted, s)
					}
					states = next
				}
				b.ReportMetric(float64(len(states)), "tracked-states")

				// The read-back oracle: one state regardless of k.
				orc := oracle.New(info)
				sw := switchsim.New("middleblock")
				h := switchv.New(info, sw, sw)
				if err := h.PushPipeline(); err != nil {
					b.Fatal(err)
				}
				var req p4rt.WriteRequest
				for j := 0; j < k; j++ {
					req.Updates = append(req.Updates, mkInsert(byte(j+1)))
				}
				resp := sw.Write(req)
				observed, err := sw.Read(p4rt.ReadRequest{})
				if err != nil {
					b.Fatal(err)
				}
				if _, violations := orc.CheckBatch(req, resp, observed); len(violations) > 0 {
					b.Fatalf("oracle violations: %v", violations)
				}
				b.ReportMetric(1, "oracle-states")
				sw.Close()
			}
		})
	}
}

// constraintsCheck avoids an import-name clash in the benchmark file.
func constraintsCheck(e *pdpi.Entry) (bool, error) { return constraints.CheckEntry(e) }

func byK(k int) string {
	switch k {
	case 4:
		return "batch4"
	case 8:
		return "batch8"
	default:
		return "batch12"
	}
}

// BenchmarkTrivialSuite times one full run of the §6.2 trivial suite on a
// clean switch (the baseline SwitchV is compared against).
func BenchmarkTrivialSuite(b *testing.B) {
	info := p4info.New(models.Middleblock())
	for i := 0; i < b.N; i++ {
		sw := switchsim.New("middleblock")
		if res := trivial.Run(info, sw, sw); res.FailedTest != "" {
			b.Fatalf("trivial suite failed at %s: %v", res.FailedTest, res.Err)
		}
		sw.Close()
	}
}

// guidedVsBlind is one seed of the guided-vs-blind comparison: each
// campaign's final table coverage and incident count, and the requests
// each needed to first reach the blind campaign's final table coverage.
type guidedVsBlind struct {
	seed                            int64
	blindTables, guidedTables       int
	blindReach, guidedReach         int
	blindIncidents, guidedIncidents int
}

// guidedVsBlindRequests is each campaign's length in requests.
const guidedVsBlindRequests = 600

// runGuidedVsBlind runs a uniform-random (blind) and a coverage-guided
// campaign on middleblock for each of seeds 1–5: same seed, same
// campaign length, one update per request so table coverage accretes
// gradually. That puts table coverage in the coupon-collector regime: a
// blind schedule keeps re-drawing already-covered tables (and wastes
// draws on constraint-heavy tables it already satisfied), while the
// guided schedule spends its energy on the uncovered ones. Reach is
// summed over several seeds because a single campaign's first-reach
// batch is noisy.
func runGuidedVsBlind(tb testing.TB) []guidedVsBlind {
	info := p4info.New(models.Middleblock())
	run := func(seed int64, guided bool) *switchv.ControlPlaneReport {
		// A faulty switch gives the incident metric something to find; the
		// fault (accepting dangling references) fires on the InvalidReference
		// mutation class in every table, so neither schedule is favored.
		sw := switchsim.New("middleblock", switchsim.FaultAcceptInvalidReference)
		defer sw.Close()
		h := switchv.New(info, sw, sw)
		if err := h.PushPipeline(); err != nil {
			tb.Fatal(err)
		}
		rep, err := h.RunControlPlane(fuzzer.Options{
			Seed: seed, NumRequests: guidedVsBlindRequests, UpdatesPerRequest: 1,
			CoverageGuided: guided,
		})
		if err != nil {
			tb.Fatal(err)
		}
		return rep
	}
	// firstReach returns the 1-based batch index at which the trajectory
	// first covers the given table count (one past the campaign if never).
	firstReach := func(rep *switchv.ControlPlaneReport, tables int) int {
		for i, s := range rep.Trajectory {
			if s.Tables >= tables {
				return i + 1
			}
		}
		return guidedVsBlindRequests + 1
	}
	var out []guidedVsBlind
	for seed := int64(1); seed <= 5; seed++ {
		blind, guided := run(seed, false), run(seed, true)
		bt := blind.Trajectory[len(blind.Trajectory)-1].Tables
		out = append(out, guidedVsBlind{
			seed:            seed,
			blindTables:     bt,
			guidedTables:    guided.Trajectory[len(guided.Trajectory)-1].Tables,
			blindReach:      firstReach(blind, bt),
			guidedReach:     firstReach(guided, bt),
			blindIncidents:  len(blind.Incidents),
			guidedIncidents: len(guided.Incidents),
		})
	}
	return out
}

// BenchmarkCoverageGuidedVsBlind contrasts uniform-random (blind) fuzzing
// with the coverage-guided schedule (see runGuidedVsBlind). It reports
// incidents found and tables covered per 1k requests, plus the request
// count at which each campaign first reaches the blind campaign's final
// table coverage. Its gates are deterministic and run in go test as
// TestCoverageGuidedVsBlind.
func BenchmarkCoverageGuidedVsBlind(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var blindReach, guidedReach, blindTables, guidedTables int
		var blindIncidents, guidedIncidents int
		runs := runGuidedVsBlind(b)
		for _, r := range runs {
			blindTables += r.blindTables
			guidedTables += r.guidedTables
			blindReach += r.blindReach
			guidedReach += r.guidedReach
			blindIncidents += r.blindIncidents
			guidedIncidents += r.guidedIncidents
		}
		n := float64(len(runs))
		b.ReportMetric(float64(blindTables)/n, "blind-tables")
		b.ReportMetric(float64(guidedTables)/n, "guided-tables")
		b.ReportMetric(float64(blindReach)/n, "blind-req-to-coverage")
		b.ReportMetric(float64(guidedReach)/n, "guided-req-to-coverage")
		b.ReportMetric(1000*float64(blindIncidents)/n/guidedVsBlindRequests, "blind-incidents-per-1k")
		b.ReportMetric(1000*float64(guidedIncidents)/n/guidedVsBlindRequests, "guided-incidents-per-1k")
	}
}

// TestCoverageGuidedVsBlind holds the greybox payoff gates: per seed the
// guided campaign covers at least the blind campaign's tables, and
// summed over the seeds it reaches the blind campaign's final table
// coverage in at most half the requests. The campaigns are
// deterministic, so every seed's table count and reach is pinned
// exactly; a drifted count fails here before a gate can.
func TestCoverageGuidedVsBlind(t *testing.T) {
	// Per seed: blind tables, blind reach, guided tables, guided reach.
	want := [][4]int{
		{12, 84, 12, 39},
		{12, 88, 12, 39},
		{12, 105, 12, 40},
		{12, 83, 12, 50},
		{12, 131, 12, 33},
	}
	var blindReach, guidedReach int
	for i, r := range runGuidedVsBlind(t) {
		if r.guidedTables < r.blindTables {
			t.Errorf("seed %d: guided covered %d tables, blind %d", r.seed, r.guidedTables, r.blindTables)
		}
		if got := [4]int{r.blindTables, r.blindReach, r.guidedTables, r.guidedReach}; got != want[i] {
			t.Errorf("seed %d: blind tables, blind reach, guided tables, guided reach = %v, want %v", r.seed, got, want[i])
		}
		blindReach += r.blindReach
		guidedReach += r.guidedReach
	}
	if guidedReach*2 > blindReach {
		t.Errorf("guided needed %d requests (summed over seeds) to reach blind's table coverage; blind needed %d (want <= half)",
			guidedReach, blindReach)
	}
}

// BenchmarkAblationConstraintAware contrasts default generation ("we
// currently do not enforce constraint compliance", §4.1) with the
// BDD-based constraint-aware mode (§7): the fraction of intended-valid
// entries for constrained tables that actually satisfy the
// @entry_restriction.
func BenchmarkAblationConstraintAware(b *testing.B) {
	prog := models.Middleblock()
	info := p4info.New(prog)
	run := func(b *testing.B, aware bool) {
		for i := 0; i < b.N; i++ {
			f := fuzzer.New(info, fuzzer.Options{Seed: 7, ConstraintAware: aware, MutateFraction: 0.0001})
			compliant, constrained := 0, 0
			for j := 0; j < 3000; j++ {
				gu, err := f.GenerateUpdate()
				if err != nil {
					b.Fatal(err)
				}
				if gu.Mutation != "" || gu.Update.Type != p4rt.Insert {
					continue
				}
				e, err := p4rt.FromWire(info, &gu.Update.Entry)
				if err != nil || e.Table.EntryRestriction == "" {
					continue
				}
				constrained++
				if ok, err := constraintsCheck(e); err == nil && ok {
					compliant++
				}
				f.NoteAccepted(gu.Update)
			}
			if constrained > 0 {
				b.ReportMetric(100*float64(compliant)/float64(constrained), "pct-compliant")
			}
		}
	}
	b.Run("default", func(b *testing.B) { run(b, false) })
	b.Run("bdd-aware", func(b *testing.B) { run(b, true) })
}

// BenchmarkCompiledVsInterp measures reference-simulator throughput in
// packets per second, single-threaded, over the Table 3 Inst1 workload
// (798 middleblock entries): the IR interpreter constructed once per
// packet (the pre-engine compare-loop pattern), the interpreter
// constructed once and reset per packet, and the compiled closure-tree
// pipeline. The engines are differentially tested to be
// outcome-identical, so this is a pure do-less-work-per-packet
// comparison; the gate asserts the compiled engine is >=10x the
// reset-reuse interpreter.
func BenchmarkCompiledVsInterp(b *testing.B) {
	prog := models.Middleblock()
	store := pdpi.NewStore()
	for _, e := range workload.MustEntries(prog, 798, 42) {
		if err := store.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
	// A mix of parser paths and table outcomes: routed, longest-prefix,
	// WCMP-shaped, unrouted, TTL edge, BGP-like TCP, and IPv6.
	frames := [][]byte{
		testutil.IPv4UDP("10.0.0.1", 64, 53),
		testutil.IPv4UDP("10.99.1.2", 64, 53),
		testutil.IPv4UDP("10.200.3.4", 64, 443),
		testutil.IPv4UDP("192.0.2.1", 64, 53),
		testutil.IPv4UDP("10.0.0.1", 1, 179),
	}
	inputs := make([]bmv2.Input, len(frames))
	for i, f := range frames {
		inputs[i] = bmv2.Input{Port: uint16(i%4 + 1), Packet: f}
	}
	// Batch sizes are chosen so a batch takes a comparable wall-clock
	// slice (~10ms) for every engine: with equal-duration batches,
	// scheduler preemption and GC pauses on a shared machine dent each
	// engine's batches about equally instead of disproportionately
	// halving the fast engine's short batches.
	const interpBatch, compiledBatch = 2000, 20000
	drive := func(b *testing.B, sim bmv2.Simulator, batch int) {
		b.Helper()
		sim.Reset()
		for j := 0; j < batch; j++ {
			if _, err := sim.Run(inputs[j%len(inputs)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	// bestPPS times several batches and keeps the fastest: a GC pause
	// landing in one batch must not decide the throughput gate.
	bestPPS := func(b *testing.B, batch int, run func()) float64 {
		b.Helper()
		best := 0.0
		for r := 0; r < 7; r++ {
			start := time.Now()
			run()
			if pps := float64(batch) / time.Since(start).Seconds(); pps > best {
				best = pps
			}
		}
		return best
	}
	var freshPPS, interpPPS, compiledPPS float64
	b.Run("interp-fresh", func(b *testing.B) {
		// Warm-up run so a -benchtime 1x pass measures steady state.
		if sim, err := bmv2.New(prog, store); err != nil {
			b.Fatal(err)
		} else {
			drive(b, sim, interpBatch)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			freshPPS = bestPPS(b, interpBatch, func() {
				for j := 0; j < interpBatch; j++ {
					sim, err := bmv2.New(prog, store)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := sim.Run(inputs[j%len(inputs)]); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.ReportMetric(freshPPS, "pps")
		}
	})
	b.Run("interp-reset", func(b *testing.B) {
		sim, err := bmv2.New(prog, store)
		if err != nil {
			b.Fatal(err)
		}
		drive(b, sim, interpBatch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			interpPPS = bestPPS(b, interpBatch, func() { drive(b, sim, interpBatch) })
			b.ReportMetric(interpPPS, "pps")
		}
	})
	b.Run("compiled", func(b *testing.B) {
		sim, err := compile.New(prog, store)
		if err != nil {
			b.Fatal(err)
		}
		drive(b, sim, compiledBatch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			compiledPPS = bestPPS(b, compiledBatch, func() { drive(b, sim, compiledBatch) })
			b.ReportMetric(compiledPPS, "pps")
		}
	})
	if freshPPS == 0 || interpPPS == 0 || compiledPPS == 0 {
		return
	}
	speedup := compiledPPS / interpPPS
	// Parent benchmarks with sub-benchmarks print no metric line of
	// their own, so log the ratio for the recorded BENCH_dataplane.json.
	b.Logf("speedup: %.1fx over interp-reset, %.1fx over interp-fresh", speedup, compiledPPS/freshPPS)
	if speedup < 10 {
		b.Fatalf("compiled engine %.0f pps is %.1fx the interpreter's %.0f pps, want >= 10x", compiledPPS, speedup, interpPPS)
	}
}

// BenchmarkParallelCampaign measures the sharded engine's scaling and,
// at the same time, checks its determinism contract: the same
// (seed, shards) campaign at workers=1 and workers=4 must merge to the
// identical table-coverage set and incident signature, with worker
// count changing only wall-clock time. The >=2x speedup assertion only
// fires on machines with >=4 CPUs -- on smaller boxes the speedup is
// still reported as a metric but not enforced.
func BenchmarkParallelCampaign(b *testing.B) {
	info := p4info.New(models.Middleblock())
	factory := func(shard int) (p4rt.Device, func(), error) {
		sw := switchsim.New("middleblock")
		return sw, func() { sw.Close() }, nil
	}
	run := func(b *testing.B, workers int) *switchv.ParallelReport {
		var rep *switchv.ParallelReport
		for i := 0; i < b.N; i++ {
			r, err := switchv.RunParallelCampaign(info, switchv.ParallelOptions{
				Workers: workers,
				Shards:  switchv.DefaultShards,
				Fuzz:    fuzzer.Options{Seed: 11, NumRequests: 240, UpdatesPerRequest: 50},
				Factory: factory,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.EntriesPerSecond(), "entries/s")
			rep = r
		}
		return rep
	}
	var seq, par *switchv.ParallelReport
	b.Run("workers=1", func(b *testing.B) { seq = run(b, 1) })
	b.Run("workers=4", func(b *testing.B) { par = run(b, 4) })
	if seq == nil || par == nil {
		return
	}
	seqTables := strings.Join(seq.Coverage.TablesAccepted(), ",")
	parTables := strings.Join(par.Coverage.TablesAccepted(), ",")
	if seqTables != parTables {
		b.Fatalf("merged table coverage differs across worker counts:\n  workers=1: %s\n  workers=4: %s", seqTables, parTables)
	}
	seqKinds := strings.Join(switchv.IncidentKinds(seq.Incidents), ",")
	parKinds := strings.Join(switchv.IncidentKinds(par.Incidents), ",")
	if seqKinds != parKinds {
		b.Fatalf("incident signature differs across worker counts:\n  workers=1: %s\n  workers=4: %s", seqKinds, parKinds)
	}
	speedup := float64(seq.Elapsed) / float64(par.Elapsed)
	b.ReportMetric(speedup, "speedup-x")
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
	if runtime.NumCPU() >= 4 && speedup < 2 {
		b.Fatalf("workers=4 speedup %.2fx on a %d-CPU machine, want >= 2x", speedup, runtime.NumCPU())
	}
}
