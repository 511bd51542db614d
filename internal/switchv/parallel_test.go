package switchv

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"switchv/internal/fuzzer"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
	"switchv/models"
)

// simFactory builds one in-process simulated switch per shard.
func simFactory(role string, faults ...switchsim.Fault) StackFactory {
	return func(shard int) (p4rt.Device, func(), error) {
		sw := switchsim.New(role, faults...)
		return sw, func() { sw.Close() }, nil
	}
}

// parallelFuzz keeps sharded unit-test campaigns quick: the budget here
// is the total across shards.
var parallelFuzz = fuzzer.Options{Seed: 7, NumRequests: 24, UpdatesPerRequest: 12}

func TestShardBatchSplit(t *testing.T) {
	for _, c := range []struct{ total, shards int }{
		{24, 8}, {25, 8}, {7, 8}, {1, 8}, {1000, 3},
	} {
		sum, max, min := 0, 0, int(^uint(0)>>1)
		for s := 0; s < c.shards; s++ {
			n := shardBatches(c.total, c.shards, s)
			sum += n
			if n > max {
				max = n
			}
			if n < min {
				min = n
			}
		}
		if sum != c.total {
			t.Errorf("split(%d,%d) sums to %d", c.total, c.shards, sum)
		}
		if max-min > 1 {
			t.Errorf("split(%d,%d) unbalanced: min %d max %d", c.total, c.shards, min, max)
		}
	}
}

// readFailDevice wraps the simulator and fails one Read call.
type readFailDevice struct {
	*switchsim.Switch
	mu     sync.Mutex
	calls  int
	failAt int
}

func (d *readFailDevice) Read(req p4rt.ReadRequest) (p4rt.ReadResponse, error) {
	d.mu.Lock()
	d.calls++
	fail := d.calls == d.failAt
	d.mu.Unlock()
	if fail {
		return p4rt.ReadResponse{}, errors.New("read-back lost")
	}
	return d.Switch.Read(req)
}

// TestOverlappedMatchesLockstep: letting the switch side run ahead of
// the oracle side must not change any campaign result — same verdicts,
// incidents, per-mutation counts and final coverage — on a clean
// switch, on a faulty one that raises incidents, and across a failed
// read-back. Only Trajectory differs: the overlapped schedule samples
// none.
func TestOverlappedMatchesLockstep(t *testing.T) {
	opts := fuzzer.Options{Seed: 3, NumRequests: 30, UpdatesPerRequest: 15}
	info := p4info.New(models.MustLoad("middleblock"))
	for _, tc := range []struct {
		name  string
		stack func(sw *switchsim.Switch) p4rt.Device
		fault []switchsim.Fault
	}{
		{"clean", func(sw *switchsim.Switch) p4rt.Device { return sw }, nil},
		{"fault", func(sw *switchsim.Switch) p4rt.Device { return sw },
			[]switchsim.Fault{switchsim.FaultAcceptInvalidReference}},
		{"read-failed", func(sw *switchsim.Switch) p4rt.Device {
			return &readFailDevice{Switch: sw, failAt: 7}
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(depth int) *ControlPlaneReport {
				sw := switchsim.New("middleblock", tc.fault...)
				defer sw.Close()
				h := New(info, tc.stack(sw), nil)
				if err := h.PushPipeline(); err != nil {
					t.Fatal(err)
				}
				rep, err := h.runControlPlane(opts, depth)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			lock, over := run(1), run(pipelineDepth)
			if len(lock.Trajectory) == 0 || len(over.Trajectory) != 0 {
				t.Errorf("trajectory samples: lockstep %d, overlapped %d; want some and none",
					len(lock.Trajectory), len(over.Trajectory))
			}
			lc, oc := lock.Canon(), over.Canon()
			lc.Trajectory = nil
			want, err := lc.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got, err := oc.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("overlapped report differs from lockstep:\nlockstep:   %s\noverlapped: %s", want, got)
			}
			if tc.name != "clean" && len(lock.Incidents) == 0 {
				t.Error("campaign raised no incidents")
			}
		})
	}
}

// runParallel is the test harness around RunParallelCampaign.
func runParallel(t *testing.T, workers int, faults ...switchsim.Fault) *ParallelReport {
	t.Helper()
	info := p4info.New(models.MustLoad("middleblock"))
	rep, err := RunParallelCampaign(info, ParallelOptions{
		Workers: workers,
		Shards:  4,
		Fuzz:    parallelFuzz,
		Factory: simFactory("middleblock", faults...),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestParallelDeterministicAcrossWorkerCounts is the engine's
// determinism contract (and the ISSUE's satellite test): the same root
// seed must produce the same merged table-coverage set — and the same
// merged counts, verdicts and incident signature — at workers=1 and
// workers=4.
func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	one := runParallel(t, 1)
	four := runParallel(t, 4)

	if got, want := four.Coverage.TablesAccepted(), one.Coverage.TablesAccepted(); !reflect.DeepEqual(got, want) {
		t.Errorf("merged table coverage differs: workers=4 %v, workers=1 %v", got, want)
	}
	if !reflect.DeepEqual(one.Coverage.Counts, four.Coverage.Counts) {
		t.Error("merged coverage counts differ between workers=1 and workers=4")
	}
	if one.Coverage.Universe != four.Coverage.Universe || one.Coverage.Covered != four.Coverage.Covered {
		t.Errorf("universe/covered differ: workers=1 %d/%d, workers=4 %d/%d",
			one.Coverage.Universe, one.Coverage.Covered, four.Coverage.Universe, four.Coverage.Covered)
	}
	if one.Batches != four.Batches || one.Updates != four.Updates ||
		one.MustAccept != four.MustAccept || one.MustReject != four.MustReject ||
		one.MayReject != four.MayReject {
		t.Errorf("merged stats differ:\nworkers=1: %+v\nworkers=4: %+v", one, four)
	}
	if !reflect.DeepEqual(one.Incidents, four.Incidents) {
		t.Errorf("merged incidents differ:\nworkers=1: %v\nworkers=4: %v", one.Incidents, four.Incidents)
	}
	if !reflect.DeepEqual(one.PerMutation, four.PerMutation) {
		t.Error("merged per-mutation stats differ between worker counts")
	}
	if one.Batches != parallelFuzz.NumRequests {
		t.Errorf("merged batches = %d, want the full budget %d", one.Batches, parallelFuzz.NumRequests)
	}
}

// TestParallelShardSeedsDiffer: each shard must fuzz a distinct stream.
func TestParallelShardSeedsDiffer(t *testing.T) {
	rep := runParallel(t, 2)
	if len(rep.PerShard) != 4 {
		t.Fatalf("PerShard has %d entries, want 4", len(rep.PerShard))
	}
	seeds := map[int64]bool{}
	for _, s := range rep.PerShard {
		if seeds[s.Seed] {
			t.Errorf("duplicate shard seed %d", s.Seed)
		}
		seeds[s.Seed] = true
		if s.Batches == 0 {
			t.Errorf("shard %d ran no batches", s.Shard)
		}
	}
}

// TestParallelCampaignFindsFaultsAndDedups: with the same fault injected
// into every shard's stack, the merged incident set is non-empty and
// contains no duplicate (tool, kind, detail) triples.
func TestParallelCampaignFindsFaultsAndDedups(t *testing.T) {
	rep := runParallel(t, 2, switchsim.FaultAcceptInvalidReference)
	if len(rep.Incidents) == 0 {
		t.Fatal("fault not detected by the parallel campaign")
	}
	seen := map[Incident]bool{}
	for _, inc := range rep.Incidents {
		if seen[inc] {
			t.Errorf("duplicate incident survived dedup: %s", inc)
		}
		seen[inc] = true
	}
	kinds := IncidentKinds(rep.Incidents)
	if len(kinds) == 0 || !sorted(kinds) {
		t.Errorf("IncidentKinds not a sorted non-empty set: %v", kinds)
	}
}

func sorted(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// TestParallelCoverageGuidedStillDeterministic: guided scheduling forces
// the per-shard loops synchronous, but sharding must stay deterministic.
func TestParallelCoverageGuidedStillDeterministic(t *testing.T) {
	run := func(workers int) *ParallelReport {
		info := p4info.New(models.MustLoad("middleblock"))
		opts := parallelFuzz
		opts.CoverageGuided = true
		rep, err := RunParallelCampaign(info, ParallelOptions{
			Workers: workers, Shards: 4, Fuzz: opts,
			Factory: simFactory("middleblock"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	one, four := run(1), run(4)
	if !reflect.DeepEqual(one.Coverage.Counts, four.Coverage.Counts) {
		t.Error("guided merged coverage differs between workers=1 and workers=4")
	}
}
