// Command switchvd runs SwitchV as a continuous fleet-validation
// daemon (§6's deployment mode): rounds of control-plane and data-plane
// campaigns against every configured target, checkpointed to a store so
// a restarted daemon resumes instead of replaying, with an HTTP status
// API.
//
//	switchvd -store /var/lib/switchvd \
//	    -target lab1=127.0.0.1:9559/middleblock \
//	    -target lab2=127.0.0.1:9560/wan \
//	    -api 127.0.0.1:8080
//
// Endpoints: /healthz, /targets, /campaigns, /incidents.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"switchv/internal/chaos"
	"switchv/internal/daemon"
	"switchv/internal/switchv"
)

// targetFlags collects repeatable -target name=addr[,addr...][/role]
// definitions.
type targetFlags []daemon.Target

func (t *targetFlags) String() string { return fmt.Sprintf("%v", []daemon.Target(*t)) }

func (t *targetFlags) Set(s string) error {
	name, rest, ok := strings.Cut(s, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("want name=addr[,addr...][/role], got %q", s)
	}
	addrs, role := rest, "middleblock"
	if a, r, ok := strings.Cut(rest, "/"); ok {
		addrs, role = a, r
	}
	tgt := daemon.Target{Name: name, Role: role}
	for _, addr := range strings.Split(addrs, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			tgt.Addrs = append(tgt.Addrs, addr)
		}
	}
	if len(tgt.Addrs) == 0 {
		return fmt.Errorf("target %q has no addresses", name)
	}
	*t = append(*t, tgt)
	return nil
}

func main() {
	var targets targetFlags
	flag.Var(&targets, "target", "target as name=addr[,addr...][/role]; repeatable")
	api := flag.String("api", "127.0.0.1:8080", "address for the HTTP status API (empty = no API)")
	storeDir := flag.String("store", "switchvd-store", "checkpoint store directory")
	seed := flag.Int64("seed", 1, "fleet root seed (round r fuzzes with a seed derived from it)")
	requests := flag.Int("requests", 40, "control-plane fuzz batches per round")
	updates := flag.Int("updates", 20, "updates per fuzz batch")
	shards := flag.Int("shards", switchv.DefaultShards, "logical shards per campaign (reports depend on it)")
	entries := flag.Int("entries", 50, "data-plane fixture entries per round")
	rounds := flag.Int("rounds", 0, "fleet rounds to run before exiting (0 = until signalled)")
	interval := flag.Duration("interval", 0, "pause between fleet rounds")
	precheck := flag.String("precheck", "on", "static model preflight: on, warn, or off")
	chaosSpec := flag.String("chaos", "", "chaos schedule over every target's p4rt wire: comma-separated mode:@N or mode:/P (restart not supported against remote targets); implies -harden")
	chaosSeed := flag.Int64("chaos-seed", 0, "seed for periodic chaos rules (0 = -seed)")
	harden := flag.Bool("harden", false, "self-healing transport stack: in-RPC retry, redial, torn-write reconciliation, warm-restart recovery")
	rpcTimeout := flag.Duration("rpc-timeout", 0, "per-RPC deadline on every target connection (0 = client default 30s, or 2s when -chaos is set: each dropped response costs one deadline before the retry fires)")
	flag.Parse()

	pm, err := precheckMode(*precheck)
	if err != nil {
		log.Fatal(err)
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "switchvd: at least one -target is required")
		os.Exit(2)
	}

	// -chaos fronts every target address with a fault-injecting MITM
	// proxy: each target addr is replaced by a local listener that
	// relays frames to the real switch while perturbing them per the
	// schedule. Restart mode needs a hook into the switch process, which
	// a remote target does not expose.
	if *chaosSpec != "" {
		cs := *chaosSeed
		if cs == 0 {
			cs = *seed
		}
		sched, err := chaos.Parse(*chaosSpec, cs)
		if err != nil {
			log.Fatal(err)
		}
		if sched.Has(chaos.ModeRestart) {
			log.Fatal("switchvd: chaos mode \"restart\" requires restarting the switch process; it is only available in-process (switchv -chaos)")
		}
		*harden = true
		if *rpcTimeout == 0 {
			*rpcTimeout = 2 * time.Second
		}
		for ti := range targets {
			for ai, addr := range targets[ti].Addrs {
				backend := addr
				wire := chaos.NewWire(sched.Derive(ti*1000+ai), func() (net.Conn, error) {
					return net.Dial("tcp", backend)
				})
				defer wire.Close()
				proxyAddr, err := wire.Listen("127.0.0.1:0")
				if err != nil {
					log.Fatalf("switchvd: chaos proxy for %s: %v", addr, err)
				}
				targets[ti].Addrs[ai] = proxyAddr.String()
				log.Printf("switchvd: chaos proxy %s -> %s (%s)", proxyAddr, addr, sched)
			}
		}
	}

	store, err := daemon.OpenStore(*storeDir)
	if err != nil {
		log.Fatal(err)
	}
	d, err := daemon.New(daemon.Config{
		Store:      store,
		Targets:    targets,
		Seed:       *seed,
		Requests:   *requests,
		Updates:    *updates,
		Shards:     *shards,
		Entries:    *entries,
		Rounds:     *rounds,
		Interval:   *interval,
		Precheck:   pm,
		Harden:     *harden,
		RPCTimeout: *rpcTimeout,
		Logf:       log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *api != "" {
		addr, err := d.Serve(*api)
		if err != nil {
			log.Fatalf("switchvd: status API: %v", err)
		}
		log.Printf("switchvd: status API on http://%s", addr)
	}

	// A signal stops the fleet cooperatively: in-flight shards finish
	// and checkpoint, so the next start resumes rather than replays.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("switchvd: stopping (in-flight shards will checkpoint)")
		d.Stop()
	}()

	log.Printf("switchvd: validating %d target(s), store %s", len(targets), *storeDir)
	start := time.Now()
	if err := d.Run(); err != nil {
		log.Fatalf("switchvd: %v", err)
	}
	log.Printf("switchvd: %d fleet round(s) completed in %v", d.Rounds(), time.Since(start).Round(time.Millisecond))
}

// precheckMode parses the -precheck flag shared by the SwitchV CLIs.
func precheckMode(s string) (switchv.PrecheckMode, error) {
	switch s {
	case "on", "":
		return switchv.PrecheckOn, nil
	case "warn":
		return switchv.PrecheckWarn, nil
	case "off":
		return switchv.PrecheckOff, nil
	}
	return 0, fmt.Errorf("invalid -precheck %q (want on, warn, or off)", s)
}
