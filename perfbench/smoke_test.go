package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// tiny shrinks a workload to a few seconds of work at most.
func tiny(w workloadSpec) workloadSpec {
	w.setups, w.rounds = 2, 1
	if w.controlPlane() {
		w.batches, w.updates = 5, 10
	} else {
		w.entries = 50
	}
	return w
}

// TestSmoke runs every workload at a tiny size, timed and then traced,
// and checks the reported metrics against BENCHMARK.json. The traced run
// must reproduce the timed run's digest and counts.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, full := range workloads {
		w := tiny(full)
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 7, stateDir: t.TempDir()}
			res, err := timed(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s",
					res.Correct, res.Attempted, res.Failed, strings.Join(res.notes, "; "))
			}
			if len(res.Metrics) != len(bf.EndToEnd) {
				t.Errorf("timed run reports %d end-to-end metrics, BENCHMARK.json has %d", len(res.Metrics), len(bf.EndToEnd))
			}
			for _, m := range bf.EndToEnd {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("metric %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			o.expected = expected{w.name: {"7": {Digest: res.digest, Counts: res.counts}}}
			res, err = traced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run incorrect: %s", strings.Join(res.notes, "; "))
			}
			for _, n := range res.notes {
				if strings.HasPrefix(n, "UNATTRIBUTED") {
					t.Error(n)
				}
			}
			if len(res.Metrics) != len(bf.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json has %d per-layer ones", len(res.Metrics), len(bf.PerLayer))
			}
			for _, m := range bf.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s = %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			if w.controlPlane() && res.Metrics["fuzzer.batch_s"].Value <= 0 {
				t.Error("control-plane trace attributed no time to the fuzzer")
			}
			if !w.controlPlane() && res.Metrics["symbolic.run_s"].Value <= 0 {
				t.Error("data-plane trace attributed no time to symbolic")
			}
			traces, _ := filepath.Glob(filepath.Join(o.stateDir, "trace-*.json"))
			if len(traces) != 1 {
				t.Errorf("traced run wrote %d trace files, want 1", len(traces))
			}
		})
	}
}

// TestExpectedGate checks that a run is correct only when its digest and
// counts equal the ones expected.json pins for its seed, and that a seed
// with nothing pinned is reported.
func TestExpectedGate(t *testing.T) {
	w := tiny(workloads[0])
	res, err := timed(w, options{seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || !hasNote(res, "pins nothing for seed 7") {
		t.Fatalf("unpinned run: correct=%v, notes %q", res.Correct, res.notes)
	}
	digest, counts := res.digest, res.counts
	with := func(edit func(map[string]int)) map[string]int {
		c := map[string]int{}
		for k, v := range counts {
			c[k] = v
		}
		edit(c)
		return c
	}
	for _, tc := range []struct {
		name    string
		pin     pinned
		correct bool
	}{
		{"same", pinned{digest, counts}, true},
		{"other digest", pinned{"x" + digest[1:], counts}, false},
		{"other count", pinned{digest, with(func(c map[string]int) { c["updates"]++ })}, false},
		{"count not pinned", pinned{digest, with(func(c map[string]int) { delete(c, "incidents") })}, false},
		{"count not reported", pinned{digest, with(func(c map[string]int) { c["incidents.p4-fuzzer/new-kind"] = 0 })}, false},
	} {
		res, err := timed(w, options{seed: 7, expected: expected{w.name: {"7": tc.pin}}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct != tc.correct {
			t.Errorf("%s: correct = %v, want %v (%q)", tc.name, res.Correct, tc.correct, res.notes)
		}
	}
}

func hasNote(res *result, substr string) bool {
	for _, n := range res.notes {
		if strings.Contains(n, substr) {
			return true
		}
	}
	return false
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "cp-fuzz-inst1", "--trace", "2"},
		{"--no-such-flag"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
