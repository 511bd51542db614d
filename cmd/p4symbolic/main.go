// Command p4symbolic runs the test-packet generation half of SwitchV: it
// symbolically executes a P4 model with a set of table entries and prints
// the coverage goals and synthesized packets.
//
//	p4symbolic -role middleblock -entries 798 -coverage entries
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"switchv/internal/bmv2"
	"switchv/internal/p4/compile"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/switchv"
	"switchv/internal/symbolic"
	"switchv/internal/workload"
	"switchv/models"
)

func main() {
	role := flag.String("role", "middleblock", "deployment role / model name")
	n := flag.Int("entries", 798, "number of table entries to generate")
	seed := flag.Int64("seed", 42, "workload seed")
	coverage := flag.String("coverage", "entries", "coverage mode: entries or branches")
	emit := flag.Bool("emit", false, "print each synthesized packet")
	var precheck switchv.PrecheckMode
	flag.Var(&precheck, "precheck", "static model preflight: on (the default: refuse on error findings), warn (report only), off (skip)")
	witness := flag.Bool("witness", true, "solver-free witness synthesis pre-pass")
	slice := flag.Bool("slice", true, "cone-of-influence slice restriction on per-goal checks")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON report instead of text")
	flag.Parse()

	var mode symbolic.CoverageMode
	switch *coverage {
	case "entries":
		mode = symbolic.CoverEntries
	case "branches":
		mode = symbolic.CoverBranches
	default:
		fmt.Fprintf(os.Stderr, "p4symbolic: -coverage %q: want entries or branches\n", *coverage)
		flag.Usage()
		os.Exit(2)
	}

	prog, err := models.Load(*role)
	if err != nil {
		log.Fatal(err)
	}

	// Static preflight: refuse defective models before the first solver
	// call (the error carries the findings), and feed the
	// unreachable-table proof set into goal pruning.
	gate := &switchv.Harness{Info: p4info.New(prog), Precheck: precheck}
	crep, err := gate.Preflight("p4-symbolic")
	if err != nil {
		log.Fatal(err)
	}
	if crep != nil && len(crep.Findings) > 0 && !*jsonOut {
		fmt.Printf("== p4check preflight ==\n%s", crep.Text())
	}
	entries := workload.MustEntries(prog, *n, *seed)
	store := pdpi.NewStore()
	for _, e := range entries {
		if err := store.Insert(e); err != nil {
			log.Fatal(err)
		}
	}

	// A data-plane round's goal universe and setup, plus the ablations.
	gopts := switchv.DataPlaneOptions{Coverage: mode}.GenOptions(crep.UnreachableSet())
	gopts.DisableWitness, gopts.DisableSlicing = !*witness, !*slice
	t0 := time.Now()
	packets, rep, err := symbolic.GeneratePacketsParallel(prog, store, symbolic.Options{}, gopts)
	if err != nil {
		log.Fatal(err)
	}
	genTime := time.Since(t0)

	if !*jsonOut {
		fmt.Printf("p4-symbolic: model %q, %d entries\n", prog.Name, len(entries))
		fmt.Printf("symbolic execution: %d shards (%d terms, %d clauses)\n", rep.Shards, rep.Terms, rep.Clauses)
		fmt.Printf("generation: %v for %d goals (%d covered, %d unreachable; %d solved, %d pruned, %d precheck-skipped, %d checks)\n",
			genTime.Round(time.Millisecond), rep.Goals, rep.Covered, rep.Unreachable, rep.Solved, rep.Pruned, rep.Precheck, rep.SMTChecks)
		fmt.Printf("checks avoided: %d/%d (witness %d, cache %d, prune %d)\n",
			rep.Goals-rep.SMTChecks, rep.Goals,
			rep.Witnessed+rep.WitnessUnsat, rep.Cached, rep.Pruned+rep.Precheck)
		if rep.SlicedAsserts > 0 || rep.SlicedBits > 0 {
			fmt.Printf("slicing: %d assertions and %d input bits left outside per-goal cones\n",
				rep.SlicedAsserts, rep.SlicedBits)
		}
		fmt.Printf("solver: %d decisions, %d propagations, %d conflicts (%d solve calls, %d kept learnts, %d assumption conflicts, %d cnf-reuse hits)\n",
			rep.SATStats.Decisions, rep.SATStats.Propagations, rep.SATStats.Conflicts,
			rep.SATStats.SolveCalls, rep.SATStats.KeptLearnts, rep.SATStats.AssumpConflicts, rep.CNFReuse)
	}

	// Replay the synthesized packets through the reference simulator: a
	// quick sanity check that every goal packet actually executes, and a
	// per-packet disposition for -emit.
	sim, err := compile.New(prog, store)
	if err != nil {
		log.Fatal(err)
	}
	var fwd, dropped, punted int
	outcomes := make([]*bmv2.Outcome, len(packets))
	t2 := time.Now()
	for i, pkt := range packets {
		sim.Reset()
		o, err := sim.Run(bmv2.Input{Port: pkt.Port, Packet: pkt.Data})
		if err != nil {
			log.Fatalf("simulating packet for %s: %v", pkt.GoalKey, err)
		}
		outcomes[i] = o
		switch o.Disposition {
		case bmv2.Forwarded:
			fwd++
		case bmv2.Dropped:
			dropped++
		case bmv2.Punted:
			punted++
		}
	}
	simTime := time.Since(t2)
	if *jsonOut {
		// One machine-readable object: the full generation report
		// (including sat.Stats and the witness/incremental counters) plus
		// the replay dispositions. Everything except the timings is a
		// deterministic function of (model, entries, options, shards).
		out := struct {
			Model        string          `json:"model"`
			Entries      int             `json:"entries"`
			Coverage     string          `json:"coverage"`
			Report       symbolic.Report `json:"report"`
			ChecksAvoid  int             `json:"checks_avoided"`
			Packets      int             `json:"packets"`
			Forwarded    int             `json:"forwarded"`
			Dropped      int             `json:"dropped"`
			Punted       int             `json:"punted"`
			GenerationMS float64         `json:"generation_ms"`
			SimulationMS float64         `json:"simulation_ms"`
		}{
			Model: prog.Name, Entries: len(entries), Coverage: *coverage,
			Report: rep, ChecksAvoid: rep.Goals - rep.SMTChecks,
			Packets: len(packets), Forwarded: fwd, Dropped: dropped, Punted: punted,
			GenerationMS: float64(genTime.Microseconds()) / 1e3,
			SimulationMS: float64(simTime.Microseconds()) / 1e3,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("simulation: %d packets in %v: %d forwarded, %d dropped, %d punted\n",
		len(packets), simTime.Round(time.Millisecond), fwd, dropped, punted)
	if *emit {
		for i, pkt := range packets {
			fmt.Printf("%-60s port=%d %-9s %x\n", pkt.GoalKey, pkt.Port, outcomes[i].Disposition, pkt.Data)
		}
	}
}
