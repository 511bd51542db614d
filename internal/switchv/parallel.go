// Parallel campaign engine: shard a control-plane fuzzing campaign
// across N independent switch stacks and merge the results.
//
// The paper's deployment runs campaigns continuously against fleets of
// testbeds (§6); throughput is the binding constraint on bug yield. Two
// axes of parallelism are exploited here:
//
//   - across shards: the campaign's batch budget is split over a fixed
//     number of logical shards, each owning a private switch stack,
//     fuzzer and coverage map, executed by a pool of workers;
//   - within a shard: generation + write + read-back (the switch side)
//     is pipelined against oracle checking (the model side), so the
//     switch is never idle while the oracle judges the previous batch
//     (see runControlPlane for the modes that force lockstep).
//
// Determinism contract: the merged result — coverage counts, table
// coverage set, deduplicated incident set — is a pure function of
// (root seed, shard count). The worker count only changes wall-clock
// time. This holds because shard campaigns are fully independent (seed
// fuzzer.DeriveSeed(root, shard), private stack, private map) and the
// merge folds them in shard order, no matter which worker ran which
// shard when.
package switchv

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"switchv/internal/coverage"
	"switchv/internal/fuzzer"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4rt"
)

// StackFactory builds the switch stack for one shard. The parallel
// engine calls it once per non-empty shard, possibly concurrently; the
// returned close function (may be nil) is called when the shard's
// campaign ends. Callers wire in-process simulators or per-shard P4RT
// client connections here.
type StackFactory func(shard int) (dev p4rt.Device, close func(), err error)

// DefaultShards is the logical shard count. It is deliberately
// decoupled from the worker count: results depend on the shard split, so
// keeping it fixed makes campaigns comparable across machines.
const DefaultShards = 8

// ParallelOptions configures a sharded campaign.
type ParallelOptions struct {
	// Workers is the number of concurrent shard executors (default 1).
	// More workers than shards is clamped to the shard count.
	Workers int
	// Shards is the logical shard count (default DefaultShards). The
	// merged result depends on it; the worker count must not.
	Shards int
	// Fuzz seeds the per-shard campaigns: Seed is the root seed each
	// shard's stream is derived from, NumRequests is the total batch
	// budget across all shards, and Coverage (optional) is the map the
	// shard results merge into.
	Fuzz fuzzer.Options
	// Factory builds each shard's switch stack (required).
	Factory StackFactory
	// Precheck selects the static-preflight gate mode, applied once
	// before any shard stack is built (the default enforces it).
	Precheck PrecheckMode
	// Resume supplies checkpointed results for shards that a previous
	// run of the same (seed, shards, budget) campaign already completed;
	// they are merged without being re-executed. The determinism
	// contract makes this safe: the merge folds per-shard reports in
	// shard order, and a checkpointed shard report is exactly what
	// re-running the shard would produce.
	Resume map[int]*ShardCheckpoint
	// OnShard, when non-nil, is called right after each freshly executed
	// shard completes (possibly concurrently from several workers, never
	// for Resume shards) — the checkpoint hook. A non-nil return stops
	// the campaign cooperatively: no new shards start, and
	// RunParallelCampaign returns the partial report wrapped in
	// ErrCampaignStopped. Shards already in flight still finish (and are
	// offered to OnShard), so no completed work is lost.
	OnShard func(shard int, cp *ShardCheckpoint) error
	// Quarantine degrades gracefully on shard errors: instead of
	// failing the whole campaign, an erroring shard is recorded in
	// Quarantined and the merge proceeds over the healthy shards. The
	// quarantined record carries the shard's seed, so its campaign can
	// be re-run standalone to reproduce the failure.
	Quarantine bool
}

// QuarantinedShard records one shard whose stack or campaign failed
// under ParallelOptions.Quarantine — enough (shard index + derived
// seed) to replay the failure in isolation.
type QuarantinedShard struct {
	Shard  int    `json:"shard"`
	Seed   int64  `json:"seed"`
	Reason string `json:"reason"`
}

// ShardCheckpoint is the durable record of one completed shard: its
// stats and its full report. The daemon's checkpoint store persists
// these as JSON and feeds them back through ParallelOptions.Resume so a
// restarted campaign merges checkpointed shards instead of replaying
// them. The struct round-trips through encoding/json.
type ShardCheckpoint struct {
	Stats  ShardStats          `json:"stats"`
	Report *ControlPlaneReport `json:"report"`
}

// ErrCampaignStopped reports a cooperative stop: an OnShard callback
// returned an error, so queued shards were skipped. The partial report
// still merges every shard that completed; resuming with their
// checkpoints later yields a result identical to an uninterrupted run.
var ErrCampaignStopped = errors.New("switchv: campaign stopped")

// ShardStats is the per-shard report slice surfaced to the CLI.
type ShardStats struct {
	Shard          int
	Worker         int // executing worker (not deterministic); -1 = restored from a checkpoint
	Seed           int64
	Batches        int
	Updates        int
	Incidents      int
	PlateauStopped bool
	Elapsed        time.Duration
}

// ParallelReport is the merged result of a sharded campaign.
type ParallelReport struct {
	Workers int
	Shards  int

	Batches    int
	Updates    int
	MustAccept int
	MustReject int
	MayReject  int

	// Incidents is the deduplicated union of the shard incident sets, in
	// shard order; DuplicateIncidents counts the drops.
	Incidents          []Incident
	DuplicateIncidents int

	PerShard    []ShardStats
	PerMutation map[string]int

	// ResumedShards counts shards merged from Resume checkpoints rather
	// than executed by this run.
	ResumedShards int

	// Quarantined lists shards sidelined under ParallelOptions.Quarantine
	// (empty otherwise — the campaign then fails on the first shard
	// error instead).
	Quarantined []QuarantinedShard

	// Coverage is the snapshot of the merged coverage map.
	Coverage *coverage.Snapshot

	Elapsed time.Duration
}

// EntriesPerSecond is the campaign throughput across all shards.
func (r *ParallelReport) EntriesPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Updates) / r.Elapsed.Seconds()
}

// IncidentKinds is the campaign's incident signature: the sorted set of
// distinct tool/kind pairs. Determinism tests and the benchmark compare
// runs on it (incident Details embed batch numbers, which depend on the
// shard split, so the raw set is the wrong thing to compare across
// configurations).
func IncidentKinds(incidents []Incident) []string {
	set := map[string]struct{}{}
	for _, inc := range incidents {
		set[inc.Tool+"/"+inc.Kind] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// shardBatches splits a total batch budget over shards: the first
// total%shards shards take one extra batch.
func shardBatches(total, shards, shard int) int {
	n := total / shards
	if shard < total%shards {
		n++
	}
	return n
}

type shardResult struct {
	rep   *ControlPlaneReport
	stats ShardStats
	err   error
}

// RunParallelCampaign shards a control-plane fuzzing campaign over
// independent switch stacks and merges the results. On a shard error
// the remaining shards still run; the first error (in shard order) is
// returned alongside the partial report.
func RunParallelCampaign(info *p4info.Info, opts ParallelOptions) (*ParallelReport, error) {
	if opts.Factory == nil {
		return nil, fmt.Errorf("switchv: ParallelOptions.Factory is required")
	}
	// Preflight once, before any stack is built: a model that fails the
	// gate should not cost N switch stacks to find out.
	gate := &Harness{Info: info, Precheck: opts.Precheck}
	crep, err := gate.Preflight("campaign")
	if err != nil {
		return nil, err
	}
	dead := crep.UnreachableSet()
	shards := opts.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > shards {
		workers = shards
	}
	total := opts.Fuzz.NumRequests
	if total == 0 {
		total = 1000
	}

	start := time.Now()
	results := make([]shardResult, shards)

	// Prefill checkpointed shards: their reports enter the merge exactly
	// as a fresh execution's would, marked Worker=-1 in the stats.
	resumed := map[int]bool{}
	for shard, cp := range opts.Resume {
		if shard < 0 || shard >= shards || cp == nil || cp.Report == nil {
			continue
		}
		st := cp.Stats
		st.Worker = -1
		results[shard] = shardResult{rep: cp.Report, stats: st}
		resumed[shard] = true
	}

	// stopped flips when OnShard asks for a cooperative stop; stopErr
	// keeps the first such cause for the wrapped ErrCampaignStopped.
	var stopped atomic.Bool
	var stopMu sync.Mutex
	var stopErr error
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for shard := range jobs {
				if stopped.Load() {
					results[shard] = shardResult{
						stats: ShardStats{Shard: shard, Seed: fuzzer.DeriveSeed(opts.Fuzz.Seed, shard)},
						err:   fmt.Errorf("shard %d: %w", shard, ErrCampaignStopped),
					}
					continue
				}
				res := runShard(info, opts, worker, shard, shardBatches(total, shards, shard))
				if res.err == nil && opts.OnShard != nil {
					if err := opts.OnShard(shard, &ShardCheckpoint{Stats: res.stats, Report: res.rep}); err != nil {
						stopped.Store(true)
						stopMu.Lock()
						if stopErr == nil {
							stopErr = err
						}
						stopMu.Unlock()
					}
				}
				results[shard] = res
			}
		}(w)
	}
	for shard := 0; shard < shards; shard++ {
		if !resumed[shard] {
			jobs <- shard
		}
	}
	close(jobs)
	wg.Wait()

	// Merge in shard order: fold coverage snapshots into the root map and
	// deduplicate incidents on their full (tool, kind, detail) identity.
	rootCov := opts.Fuzz.Coverage
	if rootCov == nil {
		rootCov = coverage.NewMapExcluding(info, dead)
	}
	rep := &ParallelReport{Workers: workers, Shards: shards, PerMutation: map[string]int{},
		ResumedShards: len(resumed)}
	seen := map[Incident]bool{}
	var firstErr error
	for shard := 0; shard < shards; shard++ {
		r := results[shard]
		// Skipped-on-stop pseudo-errors don't outrank real shard errors;
		// the stop itself is reported via ErrCampaignStopped below.
		if r.err != nil && !errors.Is(r.err, ErrCampaignStopped) {
			if opts.Quarantine {
				// Graceful degradation: sideline the broken shard (with its
				// seed, for standalone reproduction) and keep the campaign.
				rep.Quarantined = append(rep.Quarantined, QuarantinedShard{
					Shard:  shard,
					Seed:   fuzzer.DeriveSeed(opts.Fuzz.Seed, shard),
					Reason: r.err.Error(),
				})
				rep.PerShard = append(rep.PerShard, r.stats)
				continue
			}
			if firstErr == nil {
				firstErr = r.err
			}
		}
		rep.PerShard = append(rep.PerShard, r.stats)
		if r.rep == nil {
			continue
		}
		rep.Batches += r.rep.Batches
		rep.Updates += r.rep.Updates
		rep.MustAccept += r.rep.MustAccept
		rep.MustReject += r.rep.MustReject
		rep.MayReject += r.rep.MayReject
		for class, n := range r.rep.PerMutation {
			rep.PerMutation[class] += n
		}
		for _, inc := range r.rep.Incidents {
			if seen[inc] {
				rep.DuplicateIncidents++
				continue
			}
			seen[inc] = true
			rep.Incidents = append(rep.Incidents, inc)
		}
		if r.rep.Coverage != nil {
			rootCov.Merge(r.rep.Coverage)
		}
	}
	rep.Coverage = rootCov.Snapshot()
	rep.Elapsed = time.Since(start)
	if stopErr != nil {
		return rep, fmt.Errorf("%w: %w", ErrCampaignStopped, stopErr)
	}
	return rep, firstErr
}

// CanonicalReport is the deterministic projection of a merged campaign:
// every field is a pure function of (model, root seed, shard count,
// batch budget); wall-clock and scheduling artifacts (Elapsed, per-shard
// worker and timing) are excluded. The checkpoint/resume contract is
// stated over it — a campaign stopped, checkpointed and resumed must
// produce a CanonicalReport whose JSON is byte-identical to an
// uninterrupted run's.
type CanonicalReport struct {
	Shards             int                `json:"shards"`
	Batches            int                `json:"batches"`
	Updates            int                `json:"updates"`
	MustAccept         int                `json:"must_accept"`
	MustReject         int                `json:"must_reject"`
	MayReject          int                `json:"may_reject"`
	Incidents          []Incident         `json:"incidents"`
	DuplicateIncidents int                `json:"duplicate_incidents"`
	PerMutation        map[string]int     `json:"per_mutation"`
	Coverage           *coverage.Snapshot `json:"coverage"`
	// Quarantined is omitted when empty so reports from clean runs stay
	// byte-identical to those produced before quarantine existed.
	Quarantined []QuarantinedShard `json:"quarantined,omitempty"`
}

// Canon extracts the deterministic projection of the report.
func (r *ParallelReport) Canon() *CanonicalReport {
	return &CanonicalReport{
		Shards:             r.Shards,
		Batches:            r.Batches,
		Updates:            r.Updates,
		MustAccept:         r.MustAccept,
		MustReject:         r.MustReject,
		MayReject:          r.MayReject,
		Incidents:          r.Incidents,
		DuplicateIncidents: r.DuplicateIncidents,
		PerMutation:        r.PerMutation,
		Coverage:           r.Coverage,
		Quarantined:        r.Quarantined,
	}
}

// JSON renders the canonical report. encoding/json sorts map keys, so
// equal reports render to byte-equal documents — the resume-parity
// tests and the daemon's report.json both rely on that.
func (r *CanonicalReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// runShard executes one shard's campaign on a freshly built stack.
func runShard(info *p4info.Info, opts ParallelOptions, worker, shard, batches int) shardResult {
	res := shardResult{stats: ShardStats{
		Shard:  shard,
		Worker: worker,
		Seed:   fuzzer.DeriveSeed(opts.Fuzz.Seed, shard),
	}}
	if batches == 0 {
		res.rep = &ControlPlaneReport{}
		return res
	}
	begin := time.Now()
	dev, closeStack, err := opts.Factory(shard)
	if err != nil {
		res.err = fmt.Errorf("shard %d: building stack: %w", shard, err)
		return res
	}
	if closeStack != nil {
		defer closeStack()
	}
	h := New(info, dev, nil)
	h.Precheck = opts.Precheck
	if err := h.PushPipeline(); err != nil {
		res.err = fmt.Errorf("shard %d: pushing pipeline: %w", shard, err)
		return res
	}
	fo := opts.Fuzz
	fo.Seed = res.stats.Seed
	fo.NumRequests = batches
	fo.Coverage = coverage.NewMapExcluding(info, h.PrecheckReport().UnreachableSet()) // private map, merged later
	rep, err := h.runControlPlane(fo, pipelineDepth)
	if err != nil {
		res.err = fmt.Errorf("shard %d: %w", shard, err)
	}
	res.rep = rep
	res.stats.Elapsed = time.Since(begin)
	if rep != nil {
		res.stats.Batches = rep.Batches
		res.stats.Updates = rep.Updates
		res.stats.Incidents = len(rep.Incidents)
		res.stats.PlateauStopped = rep.PlateauStopped
	}
	return res
}
