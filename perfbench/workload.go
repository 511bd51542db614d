package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"time"

	"switchv/internal/fuzzer"
	"switchv/internal/p4/check"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/parser"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4rt"
	"switchv/internal/switchv"
	"switchv/internal/symbolic"
	"switchv/internal/workload"
	"switchv/models"
)

// workloadSpec is one benchmark workload: a Table 3 instance driven
// through a public switchv entry point.
type workloadSpec struct {
	name string
	role string
	// Control-plane campaign size (cp workloads): batches × updates.
	batches, updates int
	// Data-plane instance size (dp workloads): installed entries.
	entries int
	// warm primes a symbolic.Cache during set-up and passes it to every
	// round.
	warm bool
	// setups is how many times a run repeats set-up; setup_s is the
	// median.
	setups int
	// rounds is the fewest timed rounds a run measures, however long
	// they take; round_s and cpu_s are medians over them.
	rounds int
}

func (w workloadSpec) controlPlane() bool { return w.batches > 0 }

var workloads = []workloadSpec{
	{name: "cp-fuzz-inst1", role: "middleblock", batches: 100, updates: 50, setups: 101, rounds: 5},
	{name: "dp-cold-inst1", role: "middleblock", entries: 798, setups: 101, rounds: 5},
	// The full Inst2 (1314 wan entries) takes ~18 s a round on a 2-CPU
	// Xeon, too long for a median over rounds; 700 entries take ~2 s and
	// still need ~20 times Inst1's SMT checks.
	{name: "dp-cold-wan", role: "wan", entries: 700, setups: 101, rounds: 5},
	{name: "dp-warm-inst1", role: "middleblock", entries: 798, warm: true, setups: 3, rounds: 5},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// phase is one timed step of a set-up.
type phase struct {
	name       string
	start, end time.Time
}

// phases are one set-up's steps, in order.
type phases []phase

// dur is the duration of the named step, or of the whole set-up for "".
func (ps phases) dur(name string) time.Duration {
	if name == "" {
		return ps[len(ps)-1].end.Sub(ps[0].start)
	}
	for _, p := range ps {
		if p.name == name {
			return p.end.Sub(p.start)
		}
	}
	return 0
}

// env is one set-up workload: a freshly compiled model, its generated
// entries, a running stack and (warm workloads) a primed cache.
type env struct {
	w       workloadSpec
	seed    int64
	prog    *ir.Program
	info    *p4info.Info
	entries []*pdpi.Entry
	st      *stack
	dev     *device
	cache   *symbolic.Cache
	phases  phases
}

// setup loads the model from source, generates the entries, starts the
// stack, pushes the pipeline and, on warm workloads, primes the cache.
func setup(w workloadSpec, seed int64) (*env, error) {
	e := &env{w: w, seed: seed}
	mark := time.Now()
	lap := func(name string) {
		now := time.Now()
		e.phases = append(e.phases, phase{name, mark, now})
		mark = now
	}
	src, err := models.Source(w.role)
	if err != nil {
		return nil, err
	}
	ast, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	lap("p4.parse")
	if e.prog, err = ir.Compile(ast); err != nil {
		return nil, err
	}
	lap("p4.compile")
	e.info = p4info.New(e.prog)
	lap("p4info.build")
	if w.entries > 0 {
		if e.entries, err = workload.Entries(e.prog, w.entries, instanceSeed); err != nil {
			return nil, err
		}
	}
	lap("workload.entries")
	if e.st, err = startStack(w.role); err != nil {
		return nil, err
	}
	e.dev = &device{c: e.st.client}
	lap("stack.start")
	if err := switchv.New(e.info, e.dev, e.dev).PushPipeline(); err != nil {
		e.close()
		return nil, fmt.Errorf("pushing pipeline: %w", err)
	}
	lap("switchv.PushPipeline")
	if w.warm {
		e.cache = symbolic.NewCache()
		if _, _, err := symbolic.GeneratePacketsParallel(e.prog, e.store(), symbolic.Options{}, e.genOptions()); err != nil {
			e.close()
			return nil, fmt.Errorf("priming the cache: %w", err)
		}
	}
	lap("cache.prime")
	return e, nil
}

func (e *env) close() { e.st.close() }

// store is the entry set RunDataPlane installs, as a pdpi store.
func (e *env) store() *pdpi.Store {
	s := pdpi.NewStore()
	for _, en := range e.entries {
		if err := s.Insert(en); err != nil {
			panic(fmt.Sprintf("duplicate generated entry %s", en))
		}
	}
	return s
}

// genOptions are the generator options RunDataPlane uses under the
// default DataPlaneOptions (plus the workload's cache).
func (e *env) genOptions() symbolic.GenOptions {
	return symbolic.GenOptions{
		Mode:              symbolic.CoverEntries,
		Enriched:          true,
		Cache:             e.cache,
		UnreachableTables: check.Cached(e.prog).UnreachableSet(),
	}
}

func (e *env) fuzzOptions() fuzzer.Options {
	return fuzzer.Options{Seed: e.seed, NumRequests: e.w.batches, UpdatesPerRequest: e.w.updates}
}

// outcome is what one round produced.
type outcome struct {
	wall, cpu time.Duration
	peakMB    float64 // peak RSS during the round
	updates   int64   // p4rt updates written
	attempted int     // updates (cp) or tested packets (dp)
	failed    int     // incidents recording a call that errored
	incidents int     // all incidents: the validation's findings
	digest    string
	counts    map[string]int
	kinds     map[string]int // incidents by tool/kind
	span      int            // the round's span id when traced, else -1
	cp        *switchv.ParallelReport
	dp        *switchv.DataPlaneReport
}

// reset restarts the switch, so every round starts from a factory-fresh
// switch: its WCMP member selection is stateful, and a round on a used
// switch reports other incidents. It is not part of the timed round.
func (e *env) reset() error {
	e.st.sw.Restart()
	if e.w.controlPlane() {
		return nil // the campaign pushes the pipeline itself
	}
	return switchv.New(e.info, e.dev, e.dev).PushPipeline()
}

// round runs one campaign (cp) or one RunDataPlane call (dp) through the
// env's device. The switch restart and a forced GC precede the timing.
// When the device has a recorder, the round is a span and the device's
// calls are recorded afresh.
func (e *env) round() (*outcome, error) {
	rec := e.dev.rec
	e.dev.rec = nil
	if err := e.reset(); err != nil {
		return nil, fmt.Errorf("restarting the switch: %w", err)
	}
	// Collect, hand freed memory back to the kernel and restart the peak
	// RSS count, so the round's peak excludes set-up and earlier rounds.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	o := &outcome{span: -1}
	var err error
	if rec != nil {
		e.dev.rec, e.dev.calls = rec, nil
		o.span = rec.begin("round "+e.w.name, "switchv", -1, tidRound)
		e.dev.parent = o.span
	}
	before := e.dev.updates.Load()
	cpu0 := cpuTime()
	start := time.Now()
	if e.w.controlPlane() {
		o.cp, err = switchv.RunParallelCampaign(e.info, switchv.ParallelOptions{
			Workers: 1,
			Shards:  1,
			Fuzz:    e.fuzzOptions(),
			Factory: func(int) (p4rt.Device, func(), error) { return e.dev, nil, nil },
		})
	} else {
		h := switchv.New(e.info, e.dev, e.dev)
		o.dp, err = h.RunDataPlane(e.entries, switchv.DataPlaneOptions{Cache: e.cache})
	}
	o.wall = time.Since(start)
	o.cpu = cpuTime() - cpu0
	if o.peakMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	if rec != nil {
		rec.end(o.span)
	}
	o.updates = e.dev.updates.Load() - before
	if err != nil {
		return nil, err
	}
	if err := o.summarize(); err != nil {
		return nil, err
	}
	return o, nil
}

// summarize computes the round's deterministic digest and counts.
func (o *outcome) summarize() error {
	var canon []byte
	var err error
	if o.cp != nil {
		if canon, err = o.cp.Canon().JSON(); err != nil {
			return err
		}
		o.attempted = o.cp.Updates
		o.tally(o.cp.Incidents)
		o.counts = map[string]int{
			"batches":     o.cp.Batches,
			"updates":     o.cp.Updates,
			"must_accept": o.cp.MustAccept,
			"must_reject": o.cp.MustReject,
			"may_reject":  o.cp.MayReject,
			"incidents":   len(o.cp.Incidents),
		}
	} else {
		r := o.dp
		type incident struct{ Kind, Detail string }
		var incs []incident
		for _, inc := range r.Incidents {
			incs = append(incs, incident{inc.Kind, inc.Detail})
		}
		if canon, err = json.Marshal(struct {
			Goals, Covered, Unreachable, Packets int
			Solver                               symbolic.Report
			Incidents                            []incident
		}{r.Goals, r.Covered, r.Unreachable, r.Packets, r.SolverReport, incs}); err != nil {
			return err
		}
		o.attempted = r.Packets
		o.tally(r.Incidents)
		s := r.SolverReport
		o.counts = map[string]int{
			"goals":                  r.Goals,
			"covered":                r.Covered,
			"unreachable":            r.Unreachable,
			"packets":                r.Packets,
			"incidents":              len(r.Incidents),
			"symbolic.cached":        s.Cached,
			"symbolic.witnessed":     s.Witnessed,
			"symbolic.pruned":        s.Pruned,
			"symbolic.smt_checks":    s.SMTChecks,
			"symbolic.witness_unsat": s.WitnessUnsat,
		}
	}
	// Pinning every incident kind makes a kind the round has never
	// reported fail the expected-count check.
	for k, n := range o.kinds {
		o.counts["incidents."+k] = n
	}
	sum := sha256.Sum256(canon)
	o.digest = hex.EncodeToString(sum[:])
	return nil
}

// instanceSeed generates the data-plane instances: the Table 3 entry
// sets. They do not follow --seed, because solver cost varies by ±30%
// between entry sets of one size (on a 2-CPU Xeon, seeds 1-5 give
// dp-cold-inst1 rounds of 1.4-2.1 s), which would swamp any change the
// benchmark should show.
const instanceSeed = 42

// opErrors are the incident kinds the harness records when a call
// returns an error instead of a result: the operation failed. Every other
// incident is a verdict of a validation that ran (on a clean switch, a
// false positive), counted but not a failed operation.
var opErrors = map[string]bool{
	"read-failed":       true,
	"state-unavailable": true,
	"switch-error":      true,
	"simulator-error":   true,
	"packet-out-failed": true,
	"teardown-rejected": true,
}

func (o *outcome) tally(incidents []switchv.Incident) {
	o.kinds = map[string]int{}
	for _, inc := range incidents {
		o.kinds[inc.Tool+"/"+inc.Kind]++
		if opErrors[inc.Kind] {
			o.failed++
		}
	}
	o.incidents = len(incidents)
}
