package switchv

import (
	"bytes"
	"strings"
	"testing"

	"switchv/internal/coverage"
	"switchv/internal/fuzzer"
	"switchv/internal/p4/check"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
	"switchv/internal/symbolic"
	"switchv/internal/testutil"
	"switchv/models"
)

func newHarness(t *testing.T, role string, faults ...switchsim.Fault) (*Harness, *switchsim.Switch) {
	t.Helper()
	sw := switchsim.New(role, faults...)
	info := p4info.New(models.MustLoad(role))
	h := New(info, sw, sw)
	if err := h.PushPipeline(); err != nil {
		t.Fatal(err)
	}
	return h, sw
}

func fixtureEntries(role string) []*pdpi.Entry {
	prog := models.MustLoad(role)
	store := pdpi.NewStore()
	testutil.RoutingFixture(prog, store)
	return testutil.InstallOrder(p4info.New(prog), store)
}

// smallFuzz keeps unit-test campaigns quick.
var smallFuzz = fuzzer.Options{Seed: 1, NumRequests: 40, UpdatesPerRequest: 20}

// TestNoFalsePositivesControlPlane is the oracle-soundness property: a
// conformant switch produces zero incidents under fuzzing.
func TestNoFalsePositivesControlPlane(t *testing.T) {
	for _, role := range models.Names() {
		t.Run(role, func(t *testing.T) {
			h, _ := newHarness(t, role)
			rep, err := h.RunControlPlane(smallFuzz)
			if err != nil {
				t.Fatal(err)
			}
			for _, inc := range rep.Incidents {
				t.Errorf("false positive: %s", inc)
			}
			if rep.Updates == 0 || rep.MustReject == 0 || rep.MustAccept == 0 {
				t.Errorf("campaign too shallow: %+v", rep)
			}
			t.Logf("%s: %d updates, %d must-accept, %d must-reject, %d may-reject",
				role, rep.Updates, rep.MustAccept, rep.MustReject, rep.MayReject)
		})
	}
}

// TestNoFalsePositivesDataPlane: a conformant switch's behavior is always
// in the model's valid set.
func TestNoFalsePositivesDataPlane(t *testing.T) {
	for _, role := range models.Names() {
		t.Run(role, func(t *testing.T) {
			h, _ := newHarness(t, role)
			rep, err := h.RunDataPlane(fixtureEntries(role), DataPlaneOptions{Coverage: symbolic.CoverBranches, Churn: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, inc := range rep.Incidents {
				t.Errorf("false positive: %s", inc)
			}
			if rep.Packets == 0 {
				t.Error("no packets generated")
			}
			t.Logf("%s: %d goals, %d covered, %d packets", role, rep.Goals, rep.Covered, rep.Packets)
		})
	}
}

// Fault-detection tests live in matrix_test.go: the matrix covers every
// fault in switchsim's registry, not just a curated subset.

// TestControlPlaneReportsCoverage: every campaign (guided or not) carries
// a final snapshot and a per-batch trajectory.
func TestControlPlaneReportsCoverage(t *testing.T) {
	h, _ := newHarness(t, "middleblock")
	rep, err := h.RunControlPlane(smallFuzz)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage == nil {
		t.Fatal("report has no coverage snapshot")
	}
	if rep.Coverage.Covered == 0 {
		t.Error("campaign covered nothing")
	}
	if len(rep.Trajectory) != rep.Batches {
		t.Fatalf("trajectory has %d samples for %d batches", len(rep.Trajectory), rep.Batches)
	}
	for i := 1; i < len(rep.Trajectory); i++ {
		if rep.Trajectory[i].Points < rep.Trajectory[i-1].Points ||
			rep.Trajectory[i].Tables < rep.Trajectory[i-1].Tables {
			t.Fatalf("trajectory not monotone at batch %d: %+v -> %+v",
				i, rep.Trajectory[i-1], rep.Trajectory[i])
		}
	}
	if last := rep.Trajectory[len(rep.Trajectory)-1]; int64(rep.Coverage.Covered) < last.Points {
		t.Errorf("final snapshot (%d) behind trajectory (%d)", rep.Coverage.Covered, last.Points)
	}
}

// TestPlateauEarlyStop: the control-plane coverage universe is finite, so
// a long enough campaign must hit a plateau and stop early.
func TestPlateauEarlyStop(t *testing.T) {
	h, _ := newHarness(t, "middleblock")
	opts := fuzzer.Options{Seed: 5, NumRequests: 400, UpdatesPerRequest: 20, PlateauBatches: 8}
	rep, err := h.RunControlPlane(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PlateauStopped {
		t.Fatalf("campaign ran all %d batches without plateauing", rep.Batches)
	}
	if rep.Batches >= opts.NumRequests {
		t.Fatalf("plateau stop did not shorten the campaign (%d batches)", rep.Batches)
	}
	t.Logf("plateaued after %d batches, %d points covered", rep.Batches, rep.Coverage.Covered)
}

// TestDataPlaneHarvestsCoverage: a data-plane run credits table hits,
// action invocations, and symbolic goals into an injected map.
func TestDataPlaneHarvestsCoverage(t *testing.T) {
	h, _ := newHarness(t, "middleblock")
	cov := coverage.NewMap(h.Info)
	universeBefore := cov.Universe()
	rep, err := h.RunDataPlane(fixtureEntries("middleblock"), DataPlaneOptions{
		Coverage:    symbolic.CoverBranches,
		CoverageMap: cov,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage == nil {
		t.Fatal("report has no coverage snapshot")
	}
	if cov.Universe() <= universeBefore {
		t.Error("symbolic goals were not registered into the universe")
	}
	hits, invokes, goals := 0, 0, 0
	for key, n := range rep.Coverage.Counts {
		if n == 0 {
			continue
		}
		switch {
		case strings.HasPrefix(key, "table:") && strings.HasSuffix(key, ":hit"):
			hits++
		case strings.HasPrefix(key, "action:") && strings.HasSuffix(key, ":invoke"):
			invokes++
		case strings.HasPrefix(key, "goal:"):
			goals++
		}
	}
	if hits == 0 || invokes == 0 || goals == 0 {
		t.Errorf("coverage not harvested: %d table hits, %d action invokes, %d goals",
			hits, invokes, goals)
	}
}

func TestSymbolicCacheSpeedsSecondRun(t *testing.T) {
	h, _ := newHarness(t, "middleblock")
	cache := symbolic.NewCache()
	entries := fixtureEntries("middleblock")
	first, err := h.RunDataPlane(entries, DataPlaneOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first run hit the cache")
	}
	// Fresh switch, same entries: warm cache.
	h2, _ := newHarness(t, "middleblock")
	second, err := h2.RunDataPlane(entries, DataPlaneOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second run missed the cache")
	}
	if len(second.Incidents) > 0 {
		t.Errorf("cached packets produced incidents: %v", second.Incidents)
	}
	// The speed-up is the solver work the cache skips: the cold round
	// spends SMT checks, and the warm round serves every goal from the
	// cache and spends none.
	if first.SolverReport.SMTChecks == 0 {
		t.Errorf("cold round spent no SMT checks: %+v", first.SolverReport)
	}
	if s := second.SolverReport; s.SMTChecks != 0 || s.Cached != s.Goals {
		t.Errorf("warm round spent %d SMT checks and served %d of %d goals from the cache, want 0 and all",
			s.SMTChecks, s.Cached, s.Goals)
	}
}

func TestMultipleFaultsStillZeroWhenDisabled(t *testing.T) {
	// Guard against fault plumbing leaking into the default path: enabling
	// then testing a *different* role must stay clean.
	h, _ := newHarness(t, "middleblock")
	rep, err := h.RunDataPlane(fixtureEntries("middleblock"), DataPlaneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Incidents) != 0 {
		t.Errorf("incidents on clean switch: %v", rep.Incidents)
	}
}

// packetOutRecorder wraps the simulator and records every packet-out.
type packetOutRecorder struct {
	*switchsim.Switch
	outs []p4rt.PacketOut
}

func (d *packetOutRecorder) PacketOut(p p4rt.PacketOut) error {
	d.outs = append(d.outs, p)
	return d.Switch.PacketOut(p)
}

// TestSubmitToIngressSendsGeneratedPunt: the submit-to-ingress probe
// sends the packet the round's generator synthesized for the
// enriched:punt goal.
func TestSubmitToIngressSendsGeneratedPunt(t *testing.T) {
	for _, role := range []string{"middleblock", "wan"} {
		t.Run(role, func(t *testing.T) {
			prog := models.MustLoad(role)
			entries := fixtureEntries(role)
			store := pdpi.NewStore()
			for _, e := range entries {
				if err := store.Insert(e); err != nil {
					t.Fatal(err)
				}
			}
			pkts, _, err := symbolic.GeneratePacketsParallel(prog, store, symbolic.Options{}, symbolic.GenOptions{
				Mode:              symbolic.CoverEntries,
				Enriched:          true,
				UnreachableTables: check.Cached(prog).UnreachableSet(),
			})
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			for _, p := range pkts {
				if p.GoalKey == "enriched:punt" {
					want = p.Data
				}
			}
			if want == nil {
				t.Fatal("fixture has no punt packet")
			}

			sw := switchsim.New(role)
			defer sw.Close()
			dev := &packetOutRecorder{Switch: sw}
			h := New(p4info.New(prog), dev, sw)
			if err := h.PushPipeline(); err != nil {
				t.Fatal(err)
			}
			rep, err := h.RunDataPlane(entries, DataPlaneOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, inc := range rep.Incidents {
				if strings.Contains(inc.Kind, "packet-out") || inc.Kind == "submit-to-ingress-lost" {
					t.Errorf("packet-IO incident: %s", inc)
				}
			}
			var got [][]byte
			for _, p := range dev.outs {
				if p.SubmitToIngress {
					got = append(got, p.Payload)
				}
			}
			if len(got) != 1 || !bytes.Equal(got[0], want) {
				t.Errorf("submit-to-ingress payloads %x, want one: %x", got, want)
			}
		})
	}
}
