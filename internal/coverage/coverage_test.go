package coverage

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"switchv/internal/p4/p4info"
	"switchv/models"
)

func newTestMap(t *testing.T) *Map {
	t.Helper()
	return NewMap(p4info.New(models.Middleblock()))
}

func TestKeyConstructors(t *testing.T) {
	cases := []struct{ got, want string }{
		{KeyTableWrite("ipv4_table"), "table:ipv4_table:write"},
		{KeyTableAccept("ipv4_table"), "table:ipv4_table:accept"},
		{KeyTableHit("ipv4_table"), "table:ipv4_table:hit"},
		{KeyTableMiss("ipv4_table"), "table:ipv4_table:miss"},
		{KeyActionSelect("ipv4_table", "set_nexthop"), "action:ipv4_table:set_nexthop:select"},
		{KeyActionInvoke("ipv4_table", "set_nexthop"), "action:ipv4_table:set_nexthop:invoke"},
		{KeyEntryHit("ipv4_table", "10.0.0.0/8"), "entry:ipv4_table:10.0.0.0/8"},
		{KeyMutation("InvalidTableID"), "mutation:InvalidTableID"},
		{KeyMutationOutcome("InvalidTableID", "MustReject", false), "outcome:InvalidTableID:MustReject:rejected"},
		{KeyMutationOutcome("", "MustAccept", true), "outcome:valid:MustAccept:accepted"},
		{KeyVerdictOutcome("ipv4_table", "MustAccept", true), "verdict:ipv4_table:MustAccept:accepted"},
		{KeyGoal("entry:ipv4_table:3"), "goal:entry:ipv4_table:3"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("key = %q, want %q", c.got, c.want)
		}
	}
}

func TestNewMapPreRegistersModelPoints(t *testing.T) {
	info := p4info.New(models.Middleblock())
	m := NewMap(info)
	if m.Universe() == 0 {
		t.Fatal("empty universe")
	}
	if m.Covered() != 0 {
		t.Fatalf("fresh map covered = %d, want 0", m.Covered())
	}
	// Every table contributes write/accept/hit/miss plus its actions.
	for _, tab := range info.Tables() {
		for _, key := range []string{
			KeyTableWrite(tab.Name), KeyTableAccept(tab.Name),
			KeyTableHit(tab.Name), KeyTableMiss(tab.Name),
		} {
			if _, ok := m.static[key]; !ok {
				t.Errorf("static index missing %q", key)
			}
		}
		for _, a := range tab.Actions {
			if _, ok := m.static[KeyActionSelect(tab.Name, a.Name)]; !ok {
				t.Errorf("static index missing action select for %s/%s", tab.Name, a.Name)
			}
		}
	}
	snap := m.Snapshot()
	if int64(len(snap.Counts)) != m.Universe() {
		t.Fatalf("snapshot has %d keys, universe %d", len(snap.Counts), m.Universe())
	}
}

func TestIncCountCovered(t *testing.T) {
	m := newTestMap(t)
	static := KeyTableWrite("ipv4_table")
	if n := m.Inc(static); n != 1 {
		t.Fatalf("first Inc = %d, want 1", n)
	}
	if n := m.Inc(static); n != 2 {
		t.Fatalf("second Inc = %d, want 2", n)
	}
	if m.Covered() != 1 {
		t.Fatalf("covered = %d, want 1 (same point twice)", m.Covered())
	}
	// A dynamic (unregistered) key counts toward Covered but not Universe.
	u := m.Universe()
	dyn := KeyEntryHit("ipv4_table", "k1")
	m.Inc(dyn)
	if m.Covered() != 2 {
		t.Fatalf("covered = %d, want 2", m.Covered())
	}
	if m.Universe() != u {
		t.Fatalf("universe grew on Inc of dynamic key")
	}
	if m.Count(dyn) != 1 || m.Count(static) != 2 || m.Count("nope") != 0 {
		t.Fatalf("Count mismatch: dyn=%d static=%d unknown=%d",
			m.Count(dyn), m.Count(static), m.Count("nope"))
	}
}

func TestRegisterGrowsUniverseIdempotently(t *testing.T) {
	m := newTestMap(t)
	u := m.Universe()
	m.Register(KeyGoal("g1"))
	m.Register(KeyGoal("g1"))               // idempotent
	m.Register(KeyTableWrite("ipv4_table")) // already static: no-op
	if m.Universe() != u+1 {
		t.Fatalf("universe = %d, want %d", m.Universe(), u+1)
	}
	if m.Covered() != 0 {
		t.Fatalf("Register must not mark points covered")
	}
	// Registered-then-exercised counts covered exactly once.
	m.NoteGoal("g1")
	m.NoteGoal("g1")
	if m.Covered() != 1 {
		t.Fatalf("covered = %d, want 1", m.Covered())
	}
}

func TestNoteAcceptTracksTablesAccepted(t *testing.T) {
	m := newTestMap(t)
	m.NoteAccept("ipv4_table")
	m.NoteAccept("ipv4_table")
	m.NoteAccept("ipv6_table")
	if got := m.TablesAccepted(); got != 2 {
		t.Fatalf("TablesAccepted = %d, want 2", got)
	}
}

func TestNoteDataPlaneHit(t *testing.T) {
	m := newTestMap(t)
	m.NoteDataPlaneHit("ipv4_table", "key-a", "set_nexthop")
	m.NoteDataPlaneHit("ipv4_table", "", "drop") // default action = miss
	if m.Count(KeyTableHit("ipv4_table")) != 1 {
		t.Errorf("hit count = %d, want 1", m.Count(KeyTableHit("ipv4_table")))
	}
	if m.Count(KeyTableMiss("ipv4_table")) != 1 {
		t.Errorf("miss count = %d, want 1", m.Count(KeyTableMiss("ipv4_table")))
	}
	if m.Count(KeyEntryHit("ipv4_table", "key-a")) != 1 {
		t.Errorf("entry bit not set")
	}
	if m.Count(KeyActionInvoke("ipv4_table", "set_nexthop")) != 1 ||
		m.Count(KeyActionInvoke("ipv4_table", "drop")) != 1 {
		t.Errorf("action invoke counters not set")
	}
}

func TestSnapshotDiff(t *testing.T) {
	m := newTestMap(t)
	m.NoteWrite("ipv4_table")
	before := m.Snapshot()
	m.NoteWrite("ipv4_table")
	m.NoteAccept("ipv6_table")
	after := m.Snapshot()

	d := after.Diff(before)
	if d.Counts[KeyTableWrite("ipv4_table")] != 1 {
		t.Errorf("write delta = %d, want 1", d.Counts[KeyTableWrite("ipv4_table")])
	}
	if d.Counts[KeyTableAccept("ipv6_table")] != 1 {
		t.Errorf("accept delta = %d, want 1", d.Counts[KeyTableAccept("ipv6_table")])
	}
	if d.Covered != 1 {
		t.Errorf("diff covered = %d, want 1 (only the accept is newly covered)", d.Covered)
	}
	if len(d.Counts) != 2 {
		t.Errorf("diff has %d keys, want 2: %v", len(d.Counts), d.Counts)
	}
	// Diff against nil treats everything as new.
	if d0 := after.Diff(nil); d0.Covered != 2 {
		t.Errorf("diff(nil) covered = %d, want 2", d0.Covered)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	m := newTestMap(t)
	m.NoteWrite("ipv4_table")
	snap := m.Snapshot()
	data, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Universe != snap.Universe || back.Covered != snap.Covered ||
		back.Counts[KeyTableWrite("ipv4_table")] != 1 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestSnapshotPercent(t *testing.T) {
	m := newTestMap(t)
	if p := m.Snapshot().Percent(); p != 0 {
		t.Fatalf("fresh percent = %v, want 0", p)
	}
	m.NoteWrite("ipv4_table")
	// An out-of-universe dynamic point must not inflate the percentage.
	m.Inc(KeyEntryHit("ipv4_table", "k"))
	want := 100 / float64(m.Universe())
	if p := m.Snapshot().Percent(); p != want {
		t.Fatalf("percent = %v, want %v (1 of %d)", p, want, m.Universe())
	}
	if n := m.Snapshot().CoveredInUniverse(); n != 1 {
		t.Fatalf("CoveredInUniverse = %d, want 1", n)
	}
}

func TestSnapshotTableRender(t *testing.T) {
	m := newTestMap(t)
	m.NoteWrite("ipv4_table")
	m.NoteAccept("ipv4_table")
	m.NoteMutation("InvalidTableID")
	m.Register(KeyGoal("g1"))
	m.NoteGoal("g1")
	out := m.Snapshot().Table()
	for _, want := range []string{
		"ipv4_table",
		"symbolic goals covered: 1/1",
		"mutation classes applied: 1 (InvalidTableID=1)",
		"coverage points:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table() output missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentCounters hammers static and dynamic points from many
// goroutines; run under -race this is the subsystem's concurrency gate.
func TestConcurrentCounters(t *testing.T) {
	m := newTestMap(t)
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.NoteWrite("ipv4_table")
				m.NoteAccept("ipv6_table")
				m.NoteDataPlaneHit("ipv4_table", "shared-key", "set_nexthop")
				m.NoteVerdictOutcome("ipv4_table", "MustAccept", true)
				if i%50 == 0 {
					_ = m.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if n := m.Count(KeyTableWrite("ipv4_table")); n != workers*iters {
		t.Fatalf("write count = %d, want %d", n, workers*iters)
	}
	if n := m.Count(KeyEntryHit("ipv4_table", "shared-key")); n != workers*iters {
		t.Fatalf("entry count = %d, want %d", n, workers*iters)
	}
	if m.TablesAccepted() != 1 {
		t.Fatalf("TablesAccepted = %d, want 1", m.TablesAccepted())
	}
	// Each distinct point covered exactly once regardless of contention:
	// write, accept, hit, miss(0? no miss), entry, invoke, verdict.
	snap := m.Snapshot()
	covered := int64(0)
	for _, n := range snap.Counts {
		if n > 0 {
			covered++
		}
	}
	if m.Covered() != covered {
		t.Fatalf("Covered() = %d, snapshot says %d", m.Covered(), covered)
	}
}

func TestNewMapExcluding(t *testing.T) {
	info := p4info.New(models.Middleblock())
	full := NewMap(info)
	dead := "mirror_session_table"
	if _, ok := full.static[KeyTableHit(dead)]; !ok {
		t.Fatalf("fixture table %s not in the model", dead)
	}
	m := NewMapExcluding(info, map[string]bool{dead: true})

	if m.Universe() >= full.Universe() {
		t.Errorf("exclusion did not shrink the universe: %d vs %d", m.Universe(), full.Universe())
	}
	// Data-plane points of the dead table are out of the denominator...
	for _, key := range []string{KeyTableHit(dead), KeyTableMiss(dead)} {
		if _, ok := m.static[key]; ok {
			t.Errorf("dead table kept data-plane point %q", key)
		}
	}
	// ...but its control-plane points remain: it still takes entries.
	for _, key := range []string{KeyTableWrite(dead), KeyTableAccept(dead)} {
		if _, ok := m.static[key]; !ok {
			t.Errorf("dead table lost control-plane point %q", key)
		}
	}
	for _, tab := range info.Tables() {
		for _, a := range tab.Actions {
			_, hasSelect := m.static[KeyActionSelect(tab.Name, a.Name)]
			_, hasInvoke := m.static[KeyActionInvoke(tab.Name, a.Name)]
			if !hasSelect {
				t.Errorf("missing action select for %s/%s", tab.Name, a.Name)
			}
			if hasInvoke == (tab.Name == dead) {
				t.Errorf("action invoke for %s/%s: present=%v", tab.Name, a.Name, hasInvoke)
			}
		}
	}
}
