// Command perfbench is the SwitchV benchmark. It runs one
// workload — a Table 3 instance driven through RunParallelCampaign or
// Harness.RunDataPlane against a simulated switch served over loopback
// TCP — for a fixed measuring time, checks that every round produced the
// same deterministic digest, and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload dp-cold-inst1 --seed 42 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of timed, untraced
// rounds; with --trace 1 it runs one traced round, replays each layer on
// the round's recorded inputs, reports the per-layer metrics and writes a
// Chrome trace-event file.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

//go:embed expected.json
var expectedJSON []byte

// pinned is what every round of one workload and seed must reproduce:
// its digest and its deterministic counts, recorded from earlier runs.
type pinned struct {
	Digest string         `json:"digest"`
	Counts map[string]int `json:"counts"`
}

// expected maps workload -> seed ("*": any seed) -> pinned results. A run
// whose digest or counts differ fails.
type expected map[string]map[string]pinned

// result is the benchmark's output object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes  []string       // human-readable lines printed before the JSON
	digest string         // the run's deterministic digest
	counts map[string]int // the run's deterministic counts
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect and says why.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.notef("INCORRECT: "+format, args...)
}

func (r *result) set(name string, v float64, unit string) {
	if !validName(name) || !validUnit(unit) {
		panic(fmt.Sprintf("perfbench: invalid metric name %q or unit %q", name, unit))
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// options configures one run.
type options struct {
	seed     int64
	seconds  float64
	stateDir string // where a traced run writes its trace; "": nowhere
	expected expected
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 42, "input seed")
	seconds := fs.Float64("seconds", 10, "measuring time in seconds")
	traceMode := fs.Int("trace", 0, "0: timed end-to-end run; 1: traced per-layer run")
	stateDir := fs.String("state", ".bench_build/perfbench", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		fmt.Fprintf(stderr, "perfbench: expected.json: %v\n", err)
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, stateDir: *stateDir, expected: exp}
	var res *result
	var err error
	if *traceMode == 1 {
		res, err = traced(w, opts)
	} else {
		res, err = timed(w, opts)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printResult(stdout, w, res)
	if !res.Correct {
		return 1
	}
	return 0
}

func printResult(out io.Writer, w workloadSpec, res *result) {
	fmt.Fprintf(out, "workload %s\n", w.name)
	for _, n := range res.notes {
		fmt.Fprintln(out, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(out, string(line))
}
