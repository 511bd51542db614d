package symbolic

import (
	"fmt"
	"strings"
	"testing"

	"switchv/internal/bmv2"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
	"switchv/internal/testutil"
	"switchv/internal/workload"
	"switchv/models"
)

func v(x uint64, w int) value.V { return value.New(x, w) }

func fixtureExecutor(t *testing.T) (*Executor, *pdpi.Store) {
	t.Helper()
	prog := models.Middleblock()
	store := pdpi.NewStore()
	testutil.RoutingFixture(prog, store)
	ex, err := New(prog, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ex, store
}

func TestGoalsEnumerateEntriesAndDefaults(t *testing.T) {
	ex, store := fixtureExecutor(t)
	goals := ex.Goals(CoverEntries)
	// One goal per installed entry plus one default per applied table.
	wantEntries := store.Len()
	gotEntries, gotDefaults := 0, 0
	for _, g := range goals {
		if strings.Contains(g.Key, ":entry:") {
			gotEntries++
		}
		if strings.HasSuffix(g.Key, ":default") {
			gotDefaults++
		}
	}
	if gotEntries != wantEntries {
		t.Errorf("entry goals = %d, want %d", gotEntries, wantEntries)
	}
	// middleblock applies 12 tables.
	if gotDefaults != 12 {
		t.Errorf("default goals = %d, want 12", gotDefaults)
	}
	branchGoals := ex.Goals(CoverBranches)
	if len(branchGoals) <= len(goals) {
		t.Errorf("branch mode added no goals: %d vs %d", len(branchGoals), len(goals))
	}
}

// TestPacketsSatisfyGoals is the core soundness property (§5): a packet
// synthesized for goal g, when run through the reference simulator, must
// actually execute g's construct.
func TestPacketsSatisfyGoals(t *testing.T) {
	ex, store := fixtureExecutor(t)
	pkts, covered, unreachable := solveEach(t, ex, ex.Goals(CoverEntries))
	if covered == 0 {
		t.Fatal("no goals covered")
	}
	if covered+unreachable != len(ex.Goals(CoverEntries)) {
		t.Errorf("verdicts inconsistent: %d covered + %d unreachable", covered, unreachable)
	}
	checkHits(t, models.Middleblock(), store, pkts)
}

// solveEach is the one-check-per-goal reference: one SolveGoal per goal,
// returning the packets of the reachable goals and the verdict counts.
func solveEach(t *testing.T, ex *Executor, goals []Goal) (pkts []TestPacket, covered, unreachable int) {
	t.Helper()
	for _, g := range goals {
		pkt, ok, err := ex.SolveGoal(g)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			unreachable++
			continue
		}
		covered++
		pkts = append(pkts, *pkt)
	}
	return pkts, covered, unreachable
}

// checkHits replays every packet through the reference simulator and
// checks the goal's construct is hit. A goal behind a selector table
// (WCMP) is hit by the right member choice, so a packet is valid if ANY
// behavior in its valid set hits the goal — the same membership judgment
// RunDataPlane makes (§5 "Hashing"). Each packet starts from a Reset
// simulator, so no selector state carries over from earlier packets.
func checkHits(t *testing.T, prog *ir.Program, store *pdpi.Store, pkts []TestPacket) {
	t.Helper()
	sim, err := bmv2.New(prog, store)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkt := range pkts {
		sim.Reset()
		behaviors, err := sim.BehaviorSet(bmv2.Input{Port: pkt.Port, Packet: pkt.Data}, 32)
		if err != nil {
			t.Errorf("goal %s: simulator rejected packet: %v", pkt.GoalKey, err)
			continue
		}
		hit := false
		for _, out := range behaviors {
			if HitsGoal(out, pkt.GoalKey) {
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("goal %s hit by no valid behavior (%d behaviors)", pkt.GoalKey, len(behaviors))
		}
	}
}

func TestEntryGoalCoverageIsHigh(t *testing.T) {
	ex, _ := fixtureExecutor(t)
	// Every installed *entry* in this fixture is reachable. Some *default*
	// actions are legitimately unreachable: e.g. nexthop_table only
	// applies when nexthop_id was set to an installed nexthop, so its
	// default can never fire — exactly the kind of fact p4-symbolic
	// surfaces.
	for _, g := range ex.Goals(CoverEntries) {
		_, ok, err := ex.SolveGoal(g)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(g.Key, ":entry:") && !ok {
			t.Errorf("entry goal unreachable: %s", g.Key)
		}
	}
	for _, key := range []string{
		TraceKeyDefault("nexthop_table"),
		TraceKeyDefault("neighbor_table"),
		TraceKeyDefault("router_interface_table"),
		TraceKeyDefault("wcmp_group_table"),
	} {
		if _, ok, err := ex.SolveGoal(Goal{Key: key, Cond: ex.Trace(key)}); err != nil || ok {
			t.Errorf("default %s should be unreachable in this fixture (ok=%v err=%v)", key, ok, err)
		}
	}
}

func TestUnreachableEntryDetected(t *testing.T) {
	prog := models.Middleblock()
	store := pdpi.NewStore()
	testutil.RoutingFixture(prog, store)
	// An ipv4 route in VRF 7, which nothing assigns: unreachable.
	ipv4, _ := prog.TableByName("ipv4_table")
	setNexthop, _ := prog.ActionByName("set_nexthop_id")
	dead := &pdpi.Entry{
		Table: ipv4,
		Matches: []pdpi.Match{
			{Key: "vrf_id", Kind: ir.MatchExact, Value: v(7, 10)},
			{Key: "ipv4_dst", Kind: ir.MatchLPM, Value: v(0x0a000000, 32), PrefixLen: 8},
		},
		Action: &pdpi.ActionInvocation{Action: setNexthop, Args: []value.V{v(1, 10)}},
	}
	if err := dead.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(dead); err != nil {
		t.Fatal(err)
	}
	ex, err := New(prog, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pkt, ok, err := ex.SolveGoal(Goal{Key: TraceKeyEntry("ipv4_table", dead), Cond: ex.Trace(TraceKeyEntry("ipv4_table", dead))})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("unreachable entry produced packet %x", pkt.Data)
	}
}

func TestPuntGoal(t *testing.T) {
	ex, store := fixtureExecutor(t)
	// Custom goal over Y: synthesize a punted packet.
	pkt, ok, err := ex.SolveGoal(Goal{Key: "custom:punt", Cond: ex.PuntCond()})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no punted packet exists?")
	}
	sim, err := bmv2.New(models.Middleblock(), store)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run(bmv2.Input{Port: pkt.Port, Packet: pkt.Data})
	if err != nil {
		t.Fatal(err)
	}
	if out.Disposition != bmv2.Punted {
		t.Errorf("disposition = %v, want punted (packet %x)", out.Disposition, pkt.Data)
	}
}

func TestForwardGoal(t *testing.T) {
	ex, store := fixtureExecutor(t)
	pkt, ok, err := ex.SolveGoal(Goal{Key: "custom:forward", Cond: ex.ForwardCond()})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no forwarded packet exists?")
	}
	sim, err := bmv2.New(models.Middleblock(), store)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run(bmv2.Input{Port: pkt.Port, Packet: pkt.Data})
	if err != nil {
		t.Fatal(err)
	}
	if out.Disposition != bmv2.Forwarded {
		t.Errorf("disposition = %v, want forwarded", out.Disposition)
	}
}

func TestEmptyStoreStillSolves(t *testing.T) {
	prog := models.Middleblock()
	store := pdpi.NewStore()
	ex, err := New(prog, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	goals := ex.Goals(CoverEntries)
	// Only defaults exist.
	for _, g := range goals {
		if strings.Contains(g.Key, ":entry:") {
			t.Fatalf("entry goal with empty store: %s", g.Key)
		}
	}
	// Dropping is certainly possible on the empty configuration.
	if _, ok, err := ex.SolveGoal(Goal{Key: "drop", Cond: ex.DropCond()}); err != nil || !ok {
		t.Errorf("drop goal: ok=%v err=%v", ok, err)
	}
}

func TestCache(t *testing.T) {
	prog := models.Middleblock()
	store := pdpi.NewStore()
	testutil.RoutingFixture(prog, store)
	ex, err := New(prog, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	goal := ex.Goals(CoverEntries)[0]
	fp := GoalFingerprint(prog, Options{}, goal.Key, ex.DepEntries(goal.Key))
	cache := NewCache()
	if _, ok := cache.GetGoal(fp); ok {
		t.Fatal("empty cache hit")
	}
	pkt, ok, err := ex.SolveGoal(goal)
	if err != nil || !ok {
		t.Fatalf("solving %s: ok=%v err=%v", goal.Key, ok, err)
	}
	cache.PutGoal(fp, pkt)
	got, ok := cache.GetGoal(fp)
	if !ok || got == nil || got.GoalKey != pkt.GoalKey {
		t.Fatalf("cache miss after put: ok=%v got=%v", ok, got)
	}
	if cache.Hits() != 1 || cache.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", cache.Hits(), cache.Misses())
	}
	// An unreachability verdict (nil packet) is cacheable and distinct
	// from a miss.
	cache.PutGoal("unreachable-goal", nil)
	if got, ok := cache.GetGoal("unreachable-goal"); !ok || got != nil {
		t.Errorf("unreachable verdict: ok=%v got=%v", ok, got)
	}
	// Fingerprints are stable for an identical store...
	store2 := pdpi.NewStore()
	testutil.RoutingFixture(prog, store2)
	ex2, err := New(prog, store2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if GoalFingerprint(prog, Options{}, goal.Key, ex2.DepEntries(goal.Key)) != fp {
		t.Error("fingerprint not stable for identical entries")
	}
	// ...distinct per goal...
	other := ex.Goals(CoverEntries)[1]
	if GoalFingerprint(prog, Options{}, other.Key, ex.DepEntries(other.Key)) == fp {
		t.Error("fingerprint identical across distinct goals")
	}
	// ...sensitive to the goal's dependency entries...
	vrf, _ := prog.TableByName("vrf_table")
	extra := &pdpi.Entry{
		Table:   vrf,
		Matches: []pdpi.Match{{Key: "vrf_id", Kind: ir.MatchExact, Value: v(9, 10)}},
		Action:  &pdpi.ActionInvocation{Action: prog.NoAction},
	}
	if err := store2.Insert(extra); err != nil {
		t.Fatal(err)
	}
	ex3, err := New(prog, store2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vrfGoal := ""
	for _, g := range ex.Goals(CoverEntries) {
		if strings.HasPrefix(g.Key, "table:vrf_table:") {
			vrfGoal = g.Key
			break
		}
	}
	if vrfGoal == "" {
		t.Fatal("no vrf_table goal")
	}
	// ex reads store (without the extra entry), ex3 reads store2 (with
	// it): the vrf goal's dependency set differs, so must its key.
	if GoalFingerprint(prog, Options{}, vrfGoal, ex.DepEntries(vrfGoal)) ==
		GoalFingerprint(prog, Options{}, vrfGoal, ex3.DepEntries(vrfGoal)) {
		t.Error("fingerprint unchanged after dependency entry change")
	}
	// ...and sensitive to the executor options.
	if GoalFingerprint(prog, Options{MaxPort: 8}, goal.Key, ex.DepEntries(goal.Key)) == fp {
		t.Error("fingerprint unchanged across options")
	}
}

// TestFingerprintLossless: dependency sets that differ only in a
// match-field name, or only in an action-set member's args, get
// different cache keys; otherwise the cache could credit a goal with a
// packet that no longer reaches it.
func TestFingerprintLossless(t *testing.T) {
	prog := models.Middleblock()
	acl, _ := prog.TableByName("acl_ingress_table")
	aclDrop, _ := prog.ActionByName("acl_drop")
	aclEntry := func(field string) *pdpi.Entry {
		return &pdpi.Entry{
			Table:    acl,
			Matches:  []pdpi.Match{{Key: field, Kind: ir.MatchOptional, Value: v(1, 1)}},
			Priority: 10,
			Action:   &pdpi.ActionInvocation{Action: aclDrop},
		}
	}
	wcmp, _ := prog.TableByName("wcmp_group_table")
	setNexthopID, _ := prog.ActionByName("set_nexthop_id")
	group := func(nexthop uint64) *pdpi.Entry {
		return &pdpi.Entry{
			Table:   wcmp,
			Matches: []pdpi.Match{{Key: "wcmp_group_id", Kind: ir.MatchExact, Value: v(7, 10)}},
			ActionSet: []pdpi.WeightedAction{{
				ActionInvocation: pdpi.ActionInvocation{Action: setNexthopID, Args: []value.V{v(nexthop, 10)}},
				Weight:           1,
			}},
		}
	}
	for _, c := range []struct {
		name string
		a, b *pdpi.Entry
	}{
		{"acl match field", aclEntry("is_ipv4"), aclEntry("is_ipv6")},
		{"wcmp member args", group(0x4d), group(0x54)},
	} {
		for _, e := range []*pdpi.Entry{c.a, c.b} {
			if err := e.Validate(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		fa := GoalFingerprint(prog, Options{}, "enriched:forward", []*pdpi.Entry{c.a})
		fb := GoalFingerprint(prog, Options{}, "enriched:forward", []*pdpi.Entry{c.b})
		if fa == fb {
			t.Errorf("%s: %s and %s share fingerprint %s", c.name, c.a, c.b, fa)
		}
	}
}

// TestGoalFingerprintsMatchReference: the generator's per-set
// fingerprinting yields, for every goal of the seed-42 Table 3 entry
// sets, exactly the reference GoalFingerprint over DepEntries, so the
// optimisation changes no cache key.
func TestGoalFingerprintsMatchReference(t *testing.T) {
	for _, c := range []struct {
		model   string
		entries int
	}{{"middleblock", 798}, {"wan", 700}} {
		t.Run(c.model, func(t *testing.T) {
			prog := models.MustLoad(c.model)
			store := pdpi.NewStore()
			for _, e := range workload.MustEntries(prog, c.entries, 42) {
				if err := store.Insert(e); err != nil {
					t.Fatal(err)
				}
			}
			ex, err := New(prog, store, Options{})
			if err != nil {
				t.Fatal(err)
			}
			goals := append(ex.Goals(CoverBranches), ex.EnrichedGoals()...)
			skip := make([]bool, len(goals))
			skip[0] = true
			fps := ex.goalFingerprints(goals, skip)
			if fps[0] != "" {
				t.Errorf("skipped goal %s got fingerprint %s", goals[0].Key, fps[0])
			}
			distinct := map[string]bool{}
			for i, goal := range goals[1:] {
				want := GoalFingerprint(prog, Options{}, goal.Key, ex.DepEntries(goal.Key))
				if got := fps[i+1]; got != want {
					t.Fatalf("goal %s: fingerprint %s, reference %s", goal.Key, got, want)
				}
				distinct[want] = true
			}
			if len(distinct) != len(goals)-1 {
				t.Errorf("%d distinct fingerprints for %d goals", len(distinct), len(goals)-1)
			}
		})
	}
}

func TestCacheLRUEviction(t *testing.T) {
	cache := NewCacheCap(4)
	if cache.Cap() != 4 {
		t.Fatalf("cap = %d", cache.Cap())
	}
	// Churn far past the capacity: the bound must hold throughout.
	for i := 0; i < 100; i++ {
		cache.PutGoal(fmt.Sprintf("goal-%d", i), &TestPacket{GoalKey: fmt.Sprintf("g%d", i), Port: 1})
		if cache.Len() > cache.Cap() {
			t.Fatalf("after %d puts: len %d exceeds cap %d", i+1, cache.Len(), cache.Cap())
		}
	}
	if cache.Len() != 4 {
		t.Fatalf("len = %d, want 4", cache.Len())
	}
	// The most recent entries survive; the oldest were evicted.
	if _, ok := cache.GetGoal("goal-99"); !ok {
		t.Error("most recent entry evicted")
	}
	if _, ok := cache.GetGoal("goal-0"); ok {
		t.Error("oldest entry not evicted")
	}
	// A Get refreshes recency: touch goal-96, add one more, and the
	// untouched goal-97 goes instead.
	if _, ok := cache.GetGoal("goal-96"); !ok {
		t.Fatal("goal-96 missing")
	}
	cache.PutGoal("goal-100", nil)
	if _, ok := cache.GetGoal("goal-96"); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := cache.GetGoal("goal-97"); ok {
		t.Error("least recently used entry survived")
	}
	// Cached packets are private copies: mutating the caller's packet
	// after Put must not leak into the cache.
	pkt := &TestPacket{GoalKey: "mut", Data: []byte{1}}
	cache.PutGoal("mut", pkt)
	pkt.GoalKey = "changed"
	if got, _ := cache.GetGoal("mut"); got == nil || got.GoalKey != "mut" {
		t.Error("cache aliased the caller's packet")
	}
}

func TestWANExecutor(t *testing.T) {
	prog := models.WAN()
	store := pdpi.NewStore()
	testutil.RoutingFixture(prog, store)
	ex, err := New(prog, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pkts, covered, _ := solveEach(t, ex, ex.Goals(CoverEntries))
	if covered == 0 {
		t.Fatal("wan: nothing covered")
	}
	checkHits(t, prog, store, pkts)
}
