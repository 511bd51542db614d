package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"
)

const (
	// runBudget bounds a whole run (set-up included): no new timed round
	// starts once the previous one suggests it would end past it.
	runBudget = 150 * time.Second
)

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}}
}

// setupRepeated runs the workload's set-up w.setups times and keeps the
// last env. Each set-up compiles the model afresh, so every one pays the
// same front-end cost.
func setupRepeated(w workloadSpec, seed int64, rec *recorder) (*env, []phases, error) {
	var e *env
	var all []phases
	for i := 0; i < w.setups; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		id := -1
		if rec != nil {
			id = rec.begin("setup", "setup", -1, tidRound)
		}
		var err error
		if e, err = setup(w, seed); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if rec != nil {
			rec.end(id)
			for _, p := range e.phases {
				rec.add(p.name, "setup", id, tidRound, p.start, p.end)
			}
		}
		all = append(all, e.phases)
	}
	return e, all, nil
}

// setupMedian is the median duration of the named set-up step ("": the
// whole set-up) over the set-ups.
func setupMedian(all []phases, name string) float64 {
	ds := make([]time.Duration, len(all))
	for i, ps := range all {
		ds[i] = ps.dur(name)
	}
	return medianDur(ds)
}

// gate checks that every round of a run reproduces the first round's
// digest, and that the digest and counts match the ones expected.json
// pins for the workload and seed.
type gate struct {
	res   *result
	w     workloadSpec
	first *outcome
}

func (g *gate) check(label string, o *outcome) {
	if g.first == nil {
		g.first = o
		return
	}
	if o.digest != g.first.digest {
		g.res.fail("%s digest %.16s differs from the first round's %.16s", label, o.digest, g.first.digest)
	}
}

func (g *gate) finish(o options) {
	first := g.first
	g.res.digest, g.res.counts = first.digest, first.counts
	if dp := first.dp; dp != nil {
		rep := dp.SolverReport
		switch {
		case rep.Goals == 0:
			g.res.fail("the round decided no goals")
		case g.w.warm && (rep.Cached != rep.Goals || rep.SMTChecks != 0):
			g.res.fail("warm round not fully cached: %d of %d goals cached, %d SMT checks", rep.Cached, rep.Goals, rep.SMTChecks)
		case !g.w.warm && rep.Cached != 0:
			g.res.fail("cold round served %d goals from a cache", rep.Cached)
		}
	}
	exp := o.expected[g.w.name]
	want, ok := exp[strconv.FormatInt(o.seed, 10)]
	if !ok {
		want, ok = exp["*"] // inputs that do not depend on the seed
	}
	if !ok {
		g.res.notef("expected.json pins nothing for seed %d: only the rounds' agreement was checked", o.seed)
		return
	}
	if first.digest != want.Digest {
		g.res.fail("digest %.16s, expected %.16s (perfbench/expected.json)", first.digest, want.Digest)
	}
	for k, v := range want.Counts {
		if got, ok := first.counts[k]; !ok || got != v {
			g.res.fail("count %s = %d, expected %d (perfbench/expected.json)", k, got, v)
		}
	}
	for k, v := range first.counts {
		if _, ok := want.Counts[k]; !ok {
			g.res.fail("count %s = %d is not in perfbench/expected.json", k, v)
		}
	}
}

// timed is the --trace 0 run: set-up repeated, one untimed warm-up
// round, then timed rounds (each after a forced GC) until the measuring
// time is spent and at least minRounds have run.
func timed(w workloadSpec, o options) (*result, error) {
	runStart := time.Now()
	res := newResult()
	e, setups, err := setupRepeated(w, o.seed, nil)
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

	var walls, cpus, peaks, rates []float64
	spent, incidents := 0.0, 0
	for len(walls) < w.rounds || spent < o.seconds {
		if n := len(walls); n > 0 && time.Since(runStart)+time.Duration(1.5*walls[n-1]*1e9) > runBudget {
			res.notef("time budget reached after %d timed rounds", n)
			break
		}
		out, err := e.round()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(walls)+1, err)
		}
		g.check(fmt.Sprintf("round %d", len(walls)+1), out)
		walls = append(walls, out.wall.Seconds())
		cpus = append(cpus, out.cpu.Seconds())
		peaks = append(peaks, out.peakMB)
		rates = append(rates, float64(out.updates)/out.wall.Seconds())
		spent += out.wall.Seconds()
		res.Attempted += out.attempted
		res.Failed += out.failed
		incidents += out.incidents
	}
	g.finish(o)

	res.set("setup_s", setupMedian(setups, ""), "s")
	res.set("round_s", median(walls), "s")
	res.set("cpu_s", median(cpus), "s")
	res.set("peak_rss_mb", median(peaks), "MB")
	res.set("updates_per_s", median(rates), "updates/s")
	res.notef("machine %v", machine())
	res.notef("seed %d: %d set-ups, 1 warm-up round (%.3fs), timed rounds %.3f s; digest %.16s",
		o.seed, len(setups), warm.wall.Seconds(), walls, warm.digest)
	res.notef("counts %v; incidents per round %v", res.counts, warm.kinds)
	res.notef("incident ratio %d/%d = %.6f (incidents per %s); failed operations %d",
		incidents, res.Attempted, float64(incidents)/float64(res.Attempted),
		map[bool]string{true: "update", false: "tested packet"}[w.controlPlane()], res.Failed)
	return res, nil
}
