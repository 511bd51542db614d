// Command switchv validates a switch end-to-end against its P4 model: it
// pushes the pipeline, fuzzes the control plane API, and runs symbolic
// data-plane validation, printing an incident report.
//
//	switchv -role middleblock                      # in-process switch
//	switchv -connect 127.0.0.1:9559 -role wan      # remote switchd
//	switchv -skip-dataplane -workers 4             # control-plane fuzzing only, sharded
//	switchv -role middleblock -fault asic.ttl1-no-trap
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"switchv/internal/chaos"
	"switchv/internal/coverage"
	"switchv/internal/fuzzer"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
	"switchv/internal/switchv"
	"switchv/internal/symbolic"
	"switchv/internal/workload"
	"switchv/models"
)

func main() {
	connect := flag.String("connect", "", "address of a remote switchd (empty = in-process switch); with -workers, a comma-separated list, one per shard (the data plane uses the first)")
	role := flag.String("role", "middleblock", "deployment role / model name")
	faultList := flag.String("fault", "", "comma-separated faults to inject (in-process only)")
	requests := flag.Int("fuzz-requests", 100, "number of fuzz write batches")
	updates := flag.Int("fuzz-updates", 50, "updates per batch")
	seed := flag.Int64("seed", 1, "fuzzer seed")
	entries := flag.Int("entries", 200, "table entries for data-plane validation")
	branches := flag.Bool("branches", true, "use branch coverage (vs entry coverage)")
	churn := flag.Bool("churn", false, "re-apply entries with MODIFY before testing")
	skipFuzz := flag.Bool("skip-fuzz", false, "skip control plane fuzzing")
	skipData := flag.Bool("skip-dataplane", false, "skip data plane validation")
	coverageGuided := flag.Bool("coverage", false, "coverage-guided fuzzing; prints the coverage table and writes -coverage-out")
	coverageOut := flag.String("coverage-out", "coverage.json", "coverage snapshot output path (with -coverage)")
	plateau := flag.Int("plateau", 0, "stop fuzzing after N consecutive batches with no new coverage (0 = never)")
	workers := flag.Int("workers", 0, "fuzz with the parallel sharded engine using N workers (0 = sequential single-stack campaign)")
	shards := flag.Int("shards", switchv.DefaultShards, "logical shard count for -workers (results depend on it; worker count only changes speed)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	var precheck switchv.PrecheckMode
	flag.Var(&precheck, "precheck", "static model preflight: on (the default: refuse on error findings), warn (report only), off (skip)")
	chaosSpec := flag.String("chaos", "", "chaos schedule over the p4rt wire: comma-separated mode:@N (at RPC index N) or mode:/P (seeded ~1-in-P); modes: "+chaosModes()+"; implies the self-healing stack (in-process only)")
	chaosSeed := flag.Int64("chaos-seed", 0, "seed for periodic chaos rules (0 = -seed)")
	flag.Parse()

	var addrs []string
	if *connect != "" {
		addrs = strings.Split(*connect, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		if len(addrs) > 1 && *workers == 0 {
			fmt.Fprintln(os.Stderr, "switchv: a -connect list needs -workers (one address per shard)")
			flag.Usage()
			os.Exit(2)
		}
	}

	stopProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		// os.Exit skips defers, so the failure path below calls this
		// explicitly; StopCPUProfile is idempotent.
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopProfile()
	}

	prog, err := models.Load(*role)
	if err != nil {
		log.Fatal(err)
	}
	info := p4info.New(prog)

	var sched *chaos.Schedule
	if *chaosSpec != "" {
		if *connect != "" {
			log.Fatal("-chaos requires the in-process switch (drop -connect); use switchvd -chaos for remote targets")
		}
		cs := *chaosSeed
		if cs == 0 {
			cs = *seed
		}
		sched, err = chaos.Parse(*chaosSpec, cs)
		if err != nil {
			log.Fatal(err)
		}
	}

	var dev p4rt.Device
	var dp switchv.DataPlane
	var wire *chaos.Wire
	if *connect != "" {
		cli, err := p4rt.Dial(addrs[0])
		if err != nil {
			log.Fatal(err)
		}
		defer cli.Close()
		dev, dp = cli, cli
	} else if sched != nil && !sched.Empty() {
		var closeStack func()
		dev, dp, wire, closeStack, err = chaosStack(*role, *faultList, sched)
		if err != nil {
			log.Fatal(err)
		}
		defer closeStack()
		fmt.Printf("chaos: injecting %s (seed %d) over the p4rt wire\n", sched, sched.Seed)
	} else {
		faults, err := switchsim.ParseFaults(*faultList)
		if err != nil {
			log.Fatal(err)
		}
		sw := switchsim.New(*role, faults...)
		defer sw.Close()
		dev, dp = sw, sw
	}

	h := switchv.New(info, dev, dp)
	h.Precheck = precheck
	if err := h.PushPipeline(); err != nil {
		log.Fatalf("pushing pipeline: %v", err)
	}
	fmt.Printf("SwitchV: validating %s switch against model %q (%d tables)\n",
		*role, prog.Name, len(prog.Tables))

	// Surface preflight findings up front; the campaigns below refuse on
	// error findings themselves (unless -precheck=warn/off).
	crep := h.PrecheckReport()
	if crep != nil && len(crep.Findings) > 0 {
		fmt.Printf("\n== p4check preflight ==\n%s", crep.Text())
	}

	// One coverage map spans both campaigns: control-plane accepts and
	// data-plane trace hits land in the same table/action counters.
	var cov *coverage.Map
	if *coverageGuided {
		cov = coverage.NewMapExcluding(info, crep.UnreachableSet())
	}

	incidents := 0
	if !*skipFuzz {
		fuzzOpts := fuzzer.Options{
			Seed:              *seed,
			NumRequests:       *requests,
			UpdatesPerRequest: *updates,
			CoverageGuided:    *coverageGuided,
			Coverage:          cov,
			PlateauBatches:    *plateau,
		}
		if *workers > 0 {
			var factory switchv.StackFactory
			var chaosEvents func() []chaos.Event
			if sched != nil && !sched.Empty() {
				factory, chaosEvents, err = chaosFactory(*role, *faultList, sched)
			} else {
				factory, err = stackFactory(addrs, *role, *faultList, *shards)
			}
			if err != nil {
				log.Fatal(err)
			}
			rep, err := switchv.RunParallelCampaign(info, switchv.ParallelOptions{
				Workers:    *workers,
				Shards:     *shards,
				Fuzz:       fuzzOpts,
				Factory:    factory,
				Precheck:   precheck,
				Quarantine: chaosEvents != nil,
			})
			if err != nil {
				log.Fatalf("parallel control plane campaign: %v", err)
			}
			if chaosEvents != nil {
				fmt.Printf("chaos: %d faults injected across shards\n", len(chaosEvents()))
			}
			for _, q := range rep.Quarantined {
				fmt.Printf("  shard %d QUARANTINED (seed %d): %s\n", q.Shard, q.Seed, q.Reason)
			}
			fmt.Printf("\n== p4-fuzzer (parallel: %d workers, %d shards) ==\n", rep.Workers, rep.Shards)
			fmt.Printf("batches: %d  updates: %d (%.0f entries/s)\n", rep.Batches, rep.Updates, rep.EntriesPerSecond())
			fmt.Printf("verdicts: %d must-accept, %d must-reject, %d may-reject\n",
				rep.MustAccept, rep.MustReject, rep.MayReject)
			for _, s := range rep.PerShard {
				fmt.Printf("  shard %d (worker %d, seed %d): %d batches, %d updates, %d incidents in %v\n",
					s.Shard, s.Worker, s.Seed, s.Batches, s.Updates, s.Incidents, s.Elapsed.Round(1e6))
			}
			printMutations(rep.PerMutation)
			fmt.Printf("incidents: %d (%d duplicates merged)\n", len(rep.Incidents), rep.DuplicateIncidents)
			printIncidents(rep.Incidents)
			incidents += len(rep.Incidents)
		} else {
			rep, err := h.RunControlPlane(fuzzOpts)
			if err != nil {
				log.Fatalf("control plane campaign: %v", err)
			}
			if wire != nil {
				events := wire.Events()
				fmt.Printf("chaos: survived %d injected faults:", len(events))
				for _, e := range events {
					fmt.Printf(" %s", e)
				}
				fmt.Println()
			}
			fmt.Printf("\n== p4-fuzzer ==\n")
			fmt.Printf("batches: %d  updates: %d (%.0f entries/s)\n", rep.Batches, rep.Updates, rep.EntriesPerSecond())
			fmt.Printf("verdicts: %d must-accept, %d must-reject, %d may-reject\n",
				rep.MustAccept, rep.MustReject, rep.MayReject)
			if rep.PlateauStopped {
				fmt.Printf("stopped early: coverage plateaued for %d batches\n", *plateau)
			}
			printMutations(rep.PerMutation)
			fmt.Printf("incidents: %d\n", len(rep.Incidents))
			printIncidents(rep.Incidents)
			incidents += len(rep.Incidents)
		}
	}

	if !*skipData {
		ents := workload.MustEntries(prog, *entries, *seed)
		mode := symbolic.CoverEntries
		if *branches {
			mode = symbolic.CoverBranches
		}
		rep, err := h.RunDataPlane(ents, switchv.DataPlaneOptions{
			Coverage:    mode,
			Churn:       *churn,
			CoverageMap: cov,
		})
		if err != nil {
			log.Fatalf("data plane campaign: %v", err)
		}
		srep := rep.SolverReport
		fmt.Printf("\n== p4-symbolic ==\n")
		fmt.Printf("entries: %d  goals: %d  covered: %d  unreachable: %d\n",
			rep.Entries, rep.Goals, rep.Covered, rep.Unreachable)
		fmt.Printf("generation: %v  testing: %v  packets: %d\n", rep.GenElapsed, rep.TestElapsed, rep.Packets)
		fmt.Printf("solver: %d checks (%d solved, %d witnessed, %d pruned, %d cached, %d precheck-skipped) over %d shards\n",
			srep.SMTChecks, srep.Solved, srep.Witnessed+srep.WitnessUnsat, srep.Pruned, srep.Cached, srep.Precheck, srep.Shards)
		fmt.Printf("        %d terms, %d clauses, %d vars; %d decisions, %d propagations, %d conflicts\n",
			srep.Terms, srep.Clauses, srep.Vars,
			srep.SATStats.Decisions, srep.SATStats.Propagations, srep.SATStats.Conflicts)
		fmt.Printf("incidents: %d\n", len(rep.Incidents))
		printIncidents(rep.Incidents)
		incidents += len(rep.Incidents)
	}

	if cov != nil {
		snap := cov.Snapshot()
		fmt.Printf("\n== coverage ==\n%s", snap.Table())
		data, err := snap.JSON()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*coverageOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("coverage snapshot written to %s\n", *coverageOut)
	}

	if incidents > 0 {
		fmt.Printf("\nSwitchV found %d incidents; inspect the logs above to root-cause them.\n", incidents)
		stopProfile()
		os.Exit(1)
	}
	fmt.Printf("\nSwitchV found no divergence between the switch and the model.\n")
}

// chaosModes renders the mode list for the -chaos flag help.
func chaosModes() string {
	var names []string
	for _, m := range chaos.AllModes() {
		names = append(names, string(m))
	}
	return strings.Join(names, ", ")
}

// chaosStack builds the in-process chaos-hardened stack: simulator +
// p4rt server behind a fault-injecting wire, fronted by a client with
// in-RPC retry and redial and wrapped in warm-restart self-healing. The
// client timeout is short — chaos "latency" is event-driven, so the
// timeout only bounds how long the client waits before retrying into
// the wire's held-response flush.
func chaosStack(role, faultList string, sched *chaos.Schedule) (p4rt.Device, switchv.DataPlane, *chaos.Wire, func(), error) {
	faults, err := switchsim.ParseFaults(faultList)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	sw := switchsim.New(role, faults...)
	srv := p4rt.NewServer(sw, nil)
	wire := chaos.NewWire(sched, func() (net.Conn, error) {
		c1, c2 := net.Pipe()
		if err := srv.ServeConn(c2); err != nil {
			return nil, err
		}
		return c1, nil
	})
	wire.SetRestart(func() {
		sw.Restart()        // pipeline + table state lost
		srv.ResetSessions() // replay cache lost: full process reboot
	})
	conn, err := wire.Dial()
	if err != nil {
		sw.Close()
		return nil, nil, nil, nil, err
	}
	cli := p4rt.NewClient(conn)
	cli.SetRedial(wire.Dial)
	cli.SetRetry(p4rt.Backoff{Initial: time.Millisecond, Max: 10 * time.Millisecond, Attempts: 6,
		Sleep: func(time.Duration) {}})
	cli.SetTimeout(200 * time.Millisecond)
	shd := switchv.NewSelfHealing(cli)
	closeAll := func() {
		cli.Close()
		wire.Close()
		srv.Close()
		sw.Close()
	}
	return shd, shd, wire, closeAll, nil
}

// chaosFactory builds per-shard chaos-hardened stacks for the parallel
// engine, each with an independently derived chaos stream, and an
// accessor aggregating the faults injected across all shards.
func chaosFactory(role, faultList string, sched *chaos.Schedule) (switchv.StackFactory, func() []chaos.Event, error) {
	var mu sync.Mutex
	var events []chaos.Event
	factory := func(shard int) (p4rt.Device, func(), error) {
		dev, _, wire, closeAll, err := chaosStack(role, faultList, sched.Derive(shard))
		if err != nil {
			return nil, nil, err
		}
		return dev, func() {
			mu.Lock()
			events = append(events, wire.Events()...)
			mu.Unlock()
			closeAll()
		}, nil
	}
	return factory, func() []chaos.Event {
		mu.Lock()
		defer mu.Unlock()
		return events
	}, nil
}

// stackFactory builds the per-shard switch stacks for the parallel
// engine. In-process mode gives every shard its own simulator with the
// same fault set; -connect takes a comma-separated address list, one
// switch per shard, since shards fuzzing one shared switch would
// interfere with each other's read-backs.
func stackFactory(addrs []string, role, faultList string, shards int) (switchv.StackFactory, error) {
	if len(addrs) == 0 {
		faults, err := switchsim.ParseFaults(faultList)
		if err != nil {
			return nil, err
		}
		return func(shard int) (p4rt.Device, func(), error) {
			sw := switchsim.New(role, faults...)
			return sw, func() { sw.Close() }, nil
		}, nil
	}
	if len(addrs) != shards {
		return nil, fmt.Errorf("-workers with -connect needs one address per shard: got %d addresses for %d shards", len(addrs), shards)
	}
	return func(shard int) (p4rt.Device, func(), error) {
		cli, err := p4rt.Dial(addrs[shard])
		if err != nil {
			return nil, nil, err
		}
		return cli, func() { cli.Close() }, nil
	}, nil
}

// printMutations prints the per-class mutation counts, sorted by class.
func printMutations(perMutation map[string]int) {
	names := make([]string, 0, len(perMutation))
	for name := range perMutation {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("mutations applied:\n")
	for _, name := range names {
		fmt.Printf("  %-32s %d\n", name, perMutation[name])
	}
}

func printIncidents(incidents []switchv.Incident) {
	const max = 20
	for i, inc := range incidents {
		if i == max {
			fmt.Printf("  ... %d more\n", len(incidents)-max)
			break
		}
		fmt.Printf("  %s\n", inc)
	}
}
