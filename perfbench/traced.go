package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"switchv/internal/bmv2"
	"switchv/internal/coverage"
	"switchv/internal/fuzzer"
	"switchv/internal/oracle"
	"switchv/internal/p4/check"
	"switchv/internal/p4/compile"
	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
	"switchv/internal/symbolic"
)

// perLayer lists the --trace 1 metrics with their units.
var perLayer = []struct{ name, unit string }{
	{"trace.round_s", "s"}, {"trace.overhead", "ratio"},
	{"p4rt.write_s", "s"}, {"p4rt.writes", "count"}, {"p4rt.read_s", "s"}, {"p4rt.reads", "count"},
	{"p4rt.inject_s", "s"}, {"p4rt.injects", "count"}, {"p4rt.tx_mb", "MB"}, {"p4rt.rx_mb", "MB"},
	{"switchsim.write_s", "s"}, {"switchsim.read_s", "s"},
	{"fuzzer.batch_s", "s"},
	{"oracle.check_s", "s"}, {"oracle.violations", "count"},
	{"switchv.gen_s", "s"}, {"switchv.test_s", "s"}, {"switchv.other_s", "s"}, {"switchv.self_s", "s"},
	{"symbolic.exec_s", "s"}, {"symbolic.run_s", "s"}, {"symbolic.goals", "count"}, {"symbolic.cached", "count"},
	{"symbolic.precheck", "count"}, {"symbolic.witnessed", "count"}, {"symbolic.witness_unsat", "count"},
	{"symbolic.pruned", "count"}, {"symbolic.smt_checks", "count"}, {"symbolic.sliced_asserts", "count"},
	{"symbolic.solver_free_ratio", "ratio"}, {"cache.hits", "count"}, {"cache.misses", "count"},
	{"smt.terms", "count"}, {"smt.clauses", "count"}, {"smt.vars", "count"}, {"smt.cnf_reuse", "count"},
	{"sat.solve_calls", "count"}, {"sat.conflicts", "count"}, {"sat.decisions", "count"},
	{"sat.propagations", "count"}, {"sat.kept_learnts", "count"},
	{"compile.build_s", "s"}, {"compile.behavior_s", "s"}, {"compile.pps", "1/s"},
	{"p4.parse_s", "s"}, {"p4.compile_s", "s"}, {"p4info.build_s", "s"}, {"workload.entries_s", "s"},
	{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"}, {"go.gc_cpu_s", "s"},
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: no per-layer metric " + name)
}

// traced is the --trace 1 run: set-up, an untimed warm-up round, one
// untraced round, then one traced round whose device calls are spans and
// whose recorded inputs each layer is replayed on. Layer metrics whose
// replay does not reproduce the round are left out as unattributed.
func traced(w workloadSpec, o options) (*result, error) {
	res := newResult()
	rec := newRecorder()
	e, setups, err := setupRepeated(w, o.seed, rec)
	if err != nil {
		return nil, err
	}
	defer e.close()
	g := &gate{res: res, w: w}
	warm, err := e.round()
	if err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	g.check("warm-up round", warm)
	plain, err := e.round()
	if err != nil {
		return nil, fmt.Errorf("untraced round: %w", err)
	}
	g.check("untraced round", plain)

	var hits0, misses0 int
	if e.cache != nil {
		hits0, misses0 = e.cache.Hits(), e.cache.Misses()
	}
	tx0, rx0 := e.st.conn.tx.Load(), e.st.conn.rx.Load()
	gs0 := readGoStats()
	e.dev.rec = rec
	out, err := e.round()
	e.dev.rec = nil
	if err != nil {
		return nil, fmt.Errorf("traced round: %w", err)
	}
	roundID := out.span
	gs1 := readGoStats()
	tx, rx := e.st.conn.tx.Load()-tx0, e.st.conn.rx.Load()-rx0
	g.check("traced round", out)
	g.finish(o)
	res.Attempted, res.Failed = out.attempted, out.failed
	set := func(name string, v float64) { res.set(name, v, unitOf(name)) }

	set("trace.round_s", out.wall.Seconds())
	set("trace.overhead", out.wall.Seconds()/plain.wall.Seconds()-1)

	// p4rt: the client spans (they include the server and the switch).
	spans := rec.spans
	var rpc = map[string]struct {
		total time.Duration
		n     int
	}{}
	for _, s := range spans {
		if s.parent == roundID {
			v := rpc[s.name]
			v.total += s.dur()
			v.n++
			rpc[s.name] = v
		}
	}
	set("p4rt.write_s", rpc["p4rt.Write"].total.Seconds())
	set("p4rt.writes", float64(rpc["p4rt.Write"].n))
	set("p4rt.read_s", rpc["p4rt.Read"].total.Seconds())
	set("p4rt.reads", float64(rpc["p4rt.Read"].n))
	set("p4rt.inject_s", rpc["p4rt.InjectFrame"].total.Seconds())
	set("p4rt.injects", float64(rpc["p4rt.InjectFrame"].n))
	set("p4rt.tx_mb", float64(tx)/1e6)
	set("p4rt.rx_mb", float64(rx)/1e6)

	// switchv: the harness's own split of the round.
	roundSpan := spans[roundID]
	set("switchv.self_s", (roundSpan.dur() - childTotal(spans, roundID)).Seconds())
	var gen, test time.Duration
	if out.dp != nil {
		gen, test = out.dp.GenElapsed, out.dp.TestElapsed
	}
	set("switchv.gen_s", gen.Seconds())
	set("switchv.test_s", test.Seconds())
	set("switchv.other_s", (out.wall - gen - test).Seconds())

	// Go runtime, over the traced round.
	set("go.alloc_mb", float64(gs1.allocBytes-gs0.allocBytes)/1e6)
	set("go.gc_cycles", float64(gs1.gcCycles-gs0.gcCycles))
	set("go.gc_cpu_s", gs1.gcCPU-gs0.gcCPU)

	// P4 front end and workload generation, from the set-ups.
	set("p4.parse_s", setupMedian(setups, "p4.parse"))
	set("p4.compile_s", setupMedian(setups, "p4.compile"))
	set("p4info.build_s", setupMedian(setups, "p4info.build"))
	set("workload.entries_s", setupMedian(setups, "workload.entries"))

	// symbolic, smt and sat counters of the round.
	var srep symbolic.Report
	if out.dp != nil {
		srep = out.dp.SolverReport
	}
	set("symbolic.goals", float64(srep.Goals))
	set("symbolic.cached", float64(srep.Cached))
	set("symbolic.precheck", float64(srep.Precheck))
	set("symbolic.witnessed", float64(srep.Witnessed))
	set("symbolic.witness_unsat", float64(srep.WitnessUnsat))
	set("symbolic.pruned", float64(srep.Pruned))
	set("symbolic.smt_checks", float64(srep.SMTChecks))
	set("symbolic.sliced_asserts", float64(srep.SlicedAsserts))
	free := 0.0
	if srep.Goals > 0 {
		free = float64(srep.Goals-srep.Solved) / float64(srep.Goals)
	}
	set("symbolic.solver_free_ratio", free)
	set("smt.terms", float64(srep.Terms))
	set("smt.clauses", float64(srep.Clauses))
	set("smt.vars", float64(srep.Vars))
	set("smt.cnf_reuse", float64(srep.CNFReuse))
	set("sat.solve_calls", float64(srep.SATStats.SolveCalls))
	set("sat.conflicts", float64(srep.SATStats.Conflicts))
	set("sat.decisions", float64(srep.SATStats.Decisions))
	set("sat.propagations", float64(srep.SATStats.Propagations))
	set("sat.kept_learnts", float64(srep.SATStats.KeptLearnts))
	hits, misses := 0, 0
	if e.cache != nil {
		hits, misses = e.cache.Hits()-hits0, e.cache.Misses()-misses0
	}
	set("cache.hits", float64(hits))
	set("cache.misses", float64(misses))

	// Single-layer replays on the traced round's recorded inputs.
	r := &replayer{e: e, rec: rec, parent: rec.begin("replays", "replay", -1, tidReplay), calls: e.dev.calls}
	unattributed := func(layer string, err error) { res.notef("UNATTRIBUTED %s: %v", layer, err) }
	if ws, rs, err := r.switchsim(); err != nil {
		unattributed("switchsim", err)
	} else {
		set("switchsim.write_s", ws.Seconds())
		set("switchsim.read_s", rs.Seconds())
	}
	if bs, err := r.fuzzer(); err != nil {
		unattributed("fuzzer", err)
	} else {
		set("fuzzer.batch_s", bs.Seconds())
	}
	want := 0
	if out.cp != nil {
		for _, st := range out.cp.PerShard {
			want += st.Incidents
		}
	}
	if cs, n, err := r.oracle(want); err != nil {
		unattributed("oracle", err)
	} else {
		set("oracle.check_s", cs.Seconds())
		set("oracle.violations", float64(n))
	}
	if ex, run, err := r.symbolic(out); err != nil {
		unattributed("symbolic", err)
	} else {
		set("symbolic.exec_s", ex.Seconds())
		set("symbolic.run_s", run.Seconds())
	}
	if build, beh, n, err := r.compile(); err != nil {
		unattributed("compile", err)
	} else {
		set("compile.build_s", build.Seconds())
		set("compile.behavior_s", beh.Seconds())
		pps := 0.0
		if n > 0 {
			pps = float64(n) / beh.Seconds()
		}
		set("compile.pps", pps)
	}
	rec.end(r.parent)

	res.notef("machine %v", machine())
	res.notef("seed %d: digest %.16s; tracing overhead %+.1f%% (traced %.3fs vs untraced %.3fs)",
		o.seed, out.digest, 100*res.Metrics["trace.overhead"].Value, out.wall.Seconds(), plain.wall.Seconds())
	res.notef("counts %v; incidents %v", res.counts, out.kinds)
	if o.stateDir != "" {
		path := filepath.Join(o.stateDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
		if err := writeChromeTrace(path, rec.spans, machine()); err != nil {
			return nil, fmt.Errorf("writing the trace: %w", err)
		}
		res.notef("trace written to %s (%d spans)", path, len(rec.spans))
	}
	return res, nil
}

// replayer times single layers on a traced round's recorded calls.
type replayer struct {
	e      *env
	rec    *recorder
	parent int
	calls  []call
}

func (r *replayer) span(name string) int { return r.rec.begin(name, "replay", r.parent, tidReplay) }

// pairs returns the recorded (write, following read) pairs: one per
// control-plane batch.
func (r *replayer) pairs() [][2]*call {
	var out [][2]*call
	for i := range r.calls {
		if r.calls[i].kind == "write" && i+1 < len(r.calls) && r.calls[i+1].kind == "read" {
			out = append(out, [2]*call{&r.calls[i], &r.calls[i+1]})
		}
	}
	return out
}

// switchsim replays every recorded call on a fresh in-process switch and
// times Write and Read; each response must equal the recorded one.
func (r *replayer) switchsim() (write, read time.Duration, err error) {
	id := r.span("switchsim")
	defer r.rec.end(id)
	sw := switchsim.New(r.e.w.role)
	defer sw.Close()
	if err := sw.SetForwardingPipelineConfig(p4rt.ForwardingPipelineConfig{P4Info: r.e.info.Text(), Cookie: 1}); err != nil {
		return 0, 0, err
	}
	for i, c := range r.calls {
		switch c.kind {
		case "pipeline":
			err = sw.SetForwardingPipelineConfig(c.cfg)
		case "write":
			start := time.Now()
			resp := sw.Write(c.write)
			write += time.Since(start)
			if !sameValue(resp, c.resp) {
				err = fmt.Errorf("call %d: Write response differs from the recorded one", i)
			}
		case "read":
			start := time.Now()
			resp, rerr := sw.Read(p4rt.ReadRequest{})
			read += time.Since(start)
			if (rerr == nil) != (c.readErr == nil) || !sameValue(resp, c.read) {
				err = fmt.Errorf("call %d: Read response differs from the recorded one", i)
			}
		case "packet-out":
			err = sw.PacketOut(c.out)
		case "inject":
			_, err = sw.InjectFrame(c.inject)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return write, read, nil
}

// fuzzer replays the shard's NextBatch/NoteAccepted sequence; each
// generated request must equal the recorded one.
func (r *replayer) fuzzer() (time.Duration, error) {
	if !r.e.w.controlPlane() {
		return 0, nil
	}
	id := r.span("fuzzer")
	defer r.rec.end(id)
	fo := r.e.fuzzOptions()
	fo.Seed = fuzzer.DeriveSeed(r.e.seed, 0)
	fo.Coverage = coverage.NewMapExcluding(r.e.info, check.Cached(r.e.prog).UnreachableSet())
	f := fuzzer.New(r.e.info, fo)
	var total time.Duration
	pairs := r.pairs()
	if len(pairs) != r.e.w.batches {
		return 0, fmt.Errorf("recorded %d batches, the campaign ran %d", len(pairs), r.e.w.batches)
	}
	for i, p := range pairs {
		start := time.Now()
		req, _, err := f.NextBatch()
		if err != nil {
			return 0, err
		}
		if p[1].readErr == nil {
			for j, st := range p[0].resp.Statuses {
				if j < len(req.Updates) && st.Code == p4rt.OK {
					f.NoteAccepted(req.Updates[j])
				}
			}
		}
		total += time.Since(start)
		if !sameValue(req, p[0].write) {
			return 0, fmt.Errorf("batch %d: replayed request differs from the recorded one", i)
		}
	}
	return total, nil
}

// oracle replays CheckBatch on the recorded (request, response,
// read-back) triples; the violations must number the round's incidents.
func (r *replayer) oracle(want int) (time.Duration, int, error) {
	if !r.e.w.controlPlane() {
		return 0, 0, nil
	}
	id := r.span("oracle")
	defer r.rec.end(id)
	orc := oracle.New(r.e.info)
	orc.SetCoverage(coverage.NewMapExcluding(r.e.info, check.Cached(r.e.prog).UnreachableSet()))
	var total time.Duration
	n, reads := 0, 0
	for _, p := range r.pairs() {
		if p[1].readErr != nil {
			reads++
			continue
		}
		start := time.Now()
		_, viol := orc.CheckBatch(p[0].write, p[0].resp, p[1].read)
		total += time.Since(start)
		n += len(viol)
	}
	if n+reads != want {
		return 0, 0, fmt.Errorf("replay found %d violations and %d failed reads, the round %d incidents", n, reads, want)
	}
	return total, n, nil
}

// symbolic replays NewGenerator and Run with the round's generator
// options; the report must equal the round's SolverReport.
func (r *replayer) symbolic(out *outcome) (exec, run time.Duration, err error) {
	if out.dp == nil {
		return 0, 0, nil
	}
	id := r.span("symbolic")
	defer r.rec.end(id)
	start := time.Now()
	gen, err := symbolic.NewGenerator(r.e.prog, r.e.store(), symbolic.Options{}, r.e.genOptions())
	if err != nil {
		return 0, 0, err
	}
	exec = time.Since(start)
	start = time.Now()
	_, rep, err := gen.Run()
	if err != nil {
		return 0, 0, err
	}
	run = time.Since(start)
	if rep != out.dp.SolverReport {
		return 0, 0, fmt.Errorf("replayed report %+v differs from the round's %+v", rep, out.dp.SolverReport)
	}
	return exec, run, nil
}

// compile builds the compiled reference simulator over the round's
// entries and computes the behavior set of every injected packet.
func (r *replayer) compile() (build, behavior time.Duration, n int, err error) {
	if r.e.w.controlPlane() {
		return 0, 0, 0, nil
	}
	id := r.span("compile")
	defer r.rec.end(id)
	store := r.e.store()
	start := time.Now()
	sim, err := compile.New(r.e.prog, store)
	if err != nil {
		return 0, 0, 0, err
	}
	build = time.Since(start)
	start = time.Now()
	for _, c := range r.calls {
		if c.kind != "inject" {
			continue
		}
		sim.Reset()
		if _, err := sim.BehaviorSet(bmv2.Input{Port: c.inject.Port, Packet: c.inject.Frame}, 32); err != nil {
			return 0, 0, 0, err
		}
		n++
	}
	return build, time.Since(start), n, nil
}

// sameValue compares two values by their JSON form, treating nil and
// empty slices, maps and strings alike (the wire codec does not keep
// that distinction).
func sameValue(a, b any) bool {
	na, errA := normalized(a)
	nb, errB := normalized(b)
	return errA == nil && errB == nil && reflect.DeepEqual(na, nb)
}

func normalized(v any) (any, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var x any
	if err := json.Unmarshal(data, &x); err != nil {
		return nil, err
	}
	return squash(x), nil
}

func squash(x any) any {
	switch v := x.(type) {
	case nil:
		return ""
	case []any:
		if len(v) == 0 {
			return ""
		}
		for i := range v {
			v[i] = squash(v[i])
		}
	case map[string]any:
		if len(v) == 0 {
			return ""
		}
		for k := range v {
			v[k] = squash(v[k])
		}
	}
	return x
}
