// Package daemon implements switchvd, the continuous fleet-validation
// service: the deployment mode the paper describes in §6, where SwitchV
// runs campaigns against testbeds around the clock rather than as
// one-shot CLI invocations.
//
// The daemon schedules rounds of validation across a fleet of switch
// targets. Each round runs the parallel control-plane campaign and the
// symbolic data-plane campaign against every target, checkpointing
// per-shard results to an on-disk store as they complete. A daemon
// restarted over the same store resumes mid-round campaigns instead of
// replaying them — and, by the engine's determinism contract, a resumed
// round's merged report is byte-identical to an uninterrupted one.
// Incidents from all targets dedupe fleet-wide into bugdb-shaped
// records keyed by stable fingerprint, and an HTTP/JSON API exposes
// targets, campaigns, incidents and liveness.
package daemon

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"switchv/internal/bugdb"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4rt"
	"switchv/internal/switchv"
	"switchv/models"
)

// Target is one switch under continuous validation.
type Target struct {
	// Name identifies the target in the store, the API and incident
	// records. It doubles as a directory name, so keep it path-safe.
	Name string `json:"name"`
	// Role selects the expected P4 model (models.Load).
	Role string `json:"role"`
	// Addrs lists the target's P4Runtime endpoints. Shard campaigns
	// borrow addresses exclusively, so len(Addrs) bounds the per-target
	// worker count; a single-address target runs its shards serially.
	Addrs []string `json:"addrs"`
}

// Config configures a Daemon. Zero values select the noted defaults.
type Config struct {
	// Store persists checkpoints and incident records (required).
	Store *Store
	// Targets is the fleet (at least one).
	Targets []Target

	// Seed is the fleet's root seed; round r of every target fuzzes with
	// fuzzer.DeriveSeed(Seed, r), so rounds are independent campaigns
	// and re-running a round reproduces it exactly. Default 1.
	Seed int64
	// Requests is the control-plane batch budget per round (default 40).
	Requests int
	// Updates is the per-batch update count (default 20).
	Updates int
	// Shards is the logical shard count per campaign (default
	// switchv.DefaultShards). Reports depend on it; see ParallelOptions.
	Shards int
	// Entries is the data-plane fixture size per round (default 50).
	Entries int

	// Rounds bounds how many fleet rounds Run executes before returning
	// (0 = run until Stop).
	Rounds int
	// Interval is the pause between fleet rounds (default none).
	Interval time.Duration

	// Backoff is the dial policy for targets that restart mid-campaign.
	Backoff p4rt.Backoff
	// FlapRetries is how many times a round's campaign is re-attempted
	// (resuming from its checkpoints) after a transport flap before the
	// round is abandoned (default 3).
	FlapRetries int

	// Harden arms the self-healing transport stack on every per-shard
	// connection: in-RPC retry with idempotency keys (p4rt.Client
	// SetRetry + redial), torn-write read-back reconciliation
	// (switchv.Harness.Reconcile), and warm-restart recovery via
	// switchv.SelfHealingDevice — a target that restarts mid-campaign
	// has its pipeline re-pushed and entry log replayed, and the round
	// resumes byte-identically. Required when the fleet runs behind a
	// chaos wire; useful against real switches that reboot.
	Harden bool
	// RPCTimeout, when positive, overrides the client's default per-RPC
	// deadline (30s) on every connection the daemon dials. A dropped or
	// withheld response costs one full deadline before the in-RPC retry
	// fires, so campaigns behind a chaos wire want this short.
	RPCTimeout time.Duration

	// Precheck is the static-preflight gate mode for all campaigns.
	Precheck switchv.PrecheckMode
	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)
	// ShardHook, when non-nil, runs after each shard checkpoint is
	// persisted — a test seam. A non-nil return stops the campaign
	// cooperatively and surfaces from Run, exactly like a kill signal
	// landing between shards.
	ShardHook func(target string, round, shard int) error
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 40
	}
	if cfg.Updates <= 0 {
		cfg.Updates = 20
	}
	if cfg.Shards <= 0 {
		cfg.Shards = switchv.DefaultShards
	}
	if cfg.Entries <= 0 {
		cfg.Entries = 50
	}
	if cfg.FlapRetries <= 0 {
		cfg.FlapRetries = 3
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// TargetStatus is a target's live state as served by the API.
type TargetStatus struct {
	Name       string   `json:"name"`
	Role       string   `json:"role"`
	Addrs      []string `json:"addrs"`
	RoundsDone int      `json:"rounds_done"`
	Round      int      `json:"round"`
	Phase      string   `json:"phase"` // idle | control-plane | data-plane | done
	Healthy    bool     `json:"healthy"`
	LastError  string   `json:"last_error,omitempty"`
	Retries    int      `json:"retries"` // transport flaps ridden out so far
	// Quarantined counts shards sidelined by graceful degradation: their
	// stacks kept failing after every flap retry, so their work was
	// skipped rather than failing the whole round.
	Quarantined int               `json:"quarantined"`
	Trajectory  []TrajectoryPoint `json:"trajectory"`
}

// Daemon is the fleet-validation service.
type Daemon struct {
	cfg    Config
	store  *Store
	infos  map[string]*p4info.Info // by role
	progs  map[string]*ir.Program  // by role
	mu     sync.Mutex
	states map[string]*TargetStatus
	// records is the fleet-wide incident database, persisted to the
	// store after every round.
	records []bugdb.Record
	// rounds counts fleet rounds completed by this process.
	rounds   int
	stopCh   chan struct{}
	stopOnce sync.Once
}

// errStopped marks a cooperative stop requested via Stop; Run treats it
// as a clean shutdown, not a failure.
var errStopped = errors.New("daemon: stopping")

// errFlap marks a shard campaign interrupted by a transport failure;
// the scheduler reconnects with backoff and resumes from checkpoints.
var errFlap = errors.New("daemon: target transport flapped")

// New validates the config and builds a daemon over its store. Target
// histories and fleet incident records load from the store, so a
// restarted daemon picks up exactly where its predecessor stopped.
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, fmt.Errorf("daemon: Config.Store is required")
	}
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("daemon: at least one target is required")
	}
	d := &Daemon{
		cfg:    cfg,
		store:  cfg.Store,
		infos:  map[string]*p4info.Info{},
		progs:  map[string]*ir.Program{},
		states: map[string]*TargetStatus{},
		stopCh: make(chan struct{}),
	}
	for _, t := range cfg.Targets {
		if t.Name == "" || len(t.Addrs) == 0 {
			return nil, fmt.Errorf("daemon: target needs a name and at least one address: %+v", t)
		}
		if _, dup := d.states[t.Name]; dup {
			return nil, fmt.Errorf("daemon: duplicate target name %q", t.Name)
		}
		if _, ok := d.infos[t.Role]; !ok {
			prog, err := models.Load(t.Role)
			if err != nil {
				return nil, fmt.Errorf("daemon: target %s: %w", t.Name, err)
			}
			d.progs[t.Role] = prog
			d.infos[t.Role] = p4info.New(prog)
		}
		hist, err := d.store.LoadHistory(t.Name)
		if err != nil {
			return nil, err
		}
		d.states[t.Name] = &TargetStatus{
			Name:       t.Name,
			Role:       t.Role,
			Addrs:      t.Addrs,
			RoundsDone: hist.RoundsDone,
			Round:      hist.RoundsDone,
			Phase:      "idle",
			Healthy:    true,
			Trajectory: hist.Trajectory,
		}
	}
	records, err := d.store.LoadRecords()
	if err != nil {
		return nil, err
	}
	d.records = records
	return d, nil
}

// Stop asks Run to return: in-flight shards finish (and checkpoint), no
// new ones start. Safe to call from any goroutine, more than once.
func (d *Daemon) Stop() {
	d.stopOnce.Do(func() { close(d.stopCh) })
}

func (d *Daemon) stopping() bool {
	select {
	case <-d.stopCh:
		return true
	default:
		return false
	}
}

// Run executes fleet rounds until the configured round budget is spent,
// Stop is called (returns nil), or a ShardHook aborts (returns its
// error). Every target advances one round per fleet round; a target
// whose round fails is marked unhealthy and retried next fleet round,
// without blocking the rest of the fleet.
func (d *Daemon) Run() error {
	cfg := d.cfg
	for iter := 0; cfg.Rounds == 0 || iter < cfg.Rounds; iter++ {
		if d.stopping() {
			return nil
		}
		if err := d.runFleetRound(); err != nil {
			if errors.Is(err, errStopped) {
				return nil
			}
			return err
		}
		d.mu.Lock()
		d.rounds++
		d.mu.Unlock()
		last := cfg.Rounds > 0 && iter == cfg.Rounds-1
		if cfg.Interval > 0 && !last {
			select {
			case <-time.After(cfg.Interval): //detlint:allow timeafter — round pacing; results are sealed before the wait
			case <-d.stopCh:
				return nil
			}
		}
	}
	return nil
}

// roundOutcome is one target's completed round, held until the fleet
// round ends so incidents fold into the shared records in deterministic
// (sorted target name) order regardless of which target finished first.
type roundOutcome struct {
	target string
	round  int
	// incidents in report order: control plane first, then data plane.
	incidents []switchv.Incident
	// alreadyRecorded marks a round found fully done in the store — its
	// incidents were folded by a previous process, so only the status
	// refresh applies.
	alreadyRecorded bool
	err             error
}

// runFleetRound advances every target by one round, concurrently, then
// merges their incidents into the fleet records.
func (d *Daemon) runFleetRound() error {
	var wg sync.WaitGroup
	outcomes := make([]roundOutcome, len(d.cfg.Targets))
	for i, t := range d.cfg.Targets {
		wg.Add(1)
		go func(i int, t Target) {
			defer wg.Done()
			d.mu.Lock()
			round := d.states[t.Name].RoundsDone
			d.mu.Unlock()
			outcomes[i] = d.runTargetRound(t, round)
		}(i, t)
	}
	wg.Wait()

	// Fold incidents in sorted target order so the records file is a
	// pure function of the fleet's campaign results, not of scheduling.
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].target < outcomes[j].target })
	d.mu.Lock()
	changed := false
	for _, o := range outcomes {
		st := d.states[o.target]
		if o.err != nil {
			if !errors.Is(o.err, errStopped) {
				st.Healthy = false
				st.LastError = o.err.Error()
				st.Phase = "idle"
				d.cfg.Logf("daemon: target %s round %d failed: %v", o.target, o.round, o.err)
			}
			continue
		}
		st.Healthy = true
		st.LastError = ""
		if o.alreadyRecorded {
			continue
		}
		for _, inc := range o.incidents {
			d.records = bugdb.Observe(d.records, o.target, o.round, inc.Tool, inc.Kind, inc.Detail)
		}
		changed = true
	}
	records := d.records
	d.mu.Unlock()
	if changed {
		if err := d.store.SaveRecords(records); err != nil {
			return err
		}
	}
	for _, o := range outcomes {
		if o.err != nil && !errors.Is(o.err, errStopped) {
			continue
		}
		if o.err != nil {
			return o.err // errStopped: clean shutdown, or a ShardHook abort
		}
	}
	return nil
}

// Rounds returns how many fleet rounds this process has completed.
func (d *Daemon) Rounds() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rounds
}

// Records returns a copy of the current fleet incident records.
func (d *Daemon) Records() []bugdb.Record {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]bugdb.Record, len(d.records))
	copy(out, d.records)
	return out
}

// Statuses returns the fleet's target statuses, sorted by name.
func (d *Daemon) Statuses() []TargetStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]TargetStatus, 0, len(d.states))
	for _, st := range d.states {
		cp := *st
		cp.Trajectory = append([]TrajectoryPoint(nil), st.Trajectory...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (d *Daemon) setPhase(target string, round int, phase string) {
	d.mu.Lock()
	st := d.states[target]
	st.Round = round
	st.Phase = phase
	d.mu.Unlock()
}

func (d *Daemon) noteRetry(target string) {
	d.mu.Lock()
	d.states[target].Retries++
	d.mu.Unlock()
}
