// Package coverage is SwitchV's greybox feedback subsystem: it keeps a
// campaign-wide map of which regions of the P4 model have been exercised
// and feeds that map back into generation (FP4-style energy scheduling,
// see Guide).
//
// The coverage model is keyed on the P4 IR:
//
//   - per-table control-plane counters (updates generated, updates the
//     switch accepted),
//   - per-(table, action) counters (action chosen by the generator,
//     action invoked during data-plane execution),
//   - per-table data-plane hit/miss counters and per-entry hit bits,
//     harvested from bmv2/switchsim execution traces,
//   - per-mutation-class × verdict outcome counters from the oracle, and
//   - per-goal bits seeded from the symbolic trace map's goal list.
//
// A Map is one mutex over one table of counts, sized to the traffic of
// its two consumers. A control-plane campaign shard owns a private map
// that two goroutines touch (the switch side and the oracle side of the
// batch loop); a 100-batch, 50-update middleblock campaign makes about
// 20.8k Add calls, about four per update. A data-plane round shares one
// map among all its simulation workers (DataPlaneOptions.Workers, the
// -dp-workers flag), each calling NoteDataPlaneHit, two or three
// increments per trace step; a 798-entry middleblock round makes about
// 25.7k. In both, the map takes under 1% of the run's CPU.
package coverage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"

	"switchv/internal/p4/p4info"
)

// Well-known key constructors. Every coverage point is a string key; the
// constructors keep the namespace consistent across producers.

// KeyTableWrite counts generated updates targeting a table.
func KeyTableWrite(table string) string { return "table:" + table + ":write" }

// KeyTableAccept counts updates the switch accepted for a table.
func KeyTableAccept(table string) string { return "table:" + table + ":accept" }

// KeyTableHit counts data-plane traversals that matched some entry.
func KeyTableHit(table string) string { return "table:" + table + ":hit" }

// KeyTableMiss counts data-plane traversals that fell to the default.
func KeyTableMiss(table string) string { return "table:" + table + ":miss" }

// KeyActionSelect counts accepted entries programmed with an action.
func KeyActionSelect(table, action string) string {
	return "action:" + table + ":" + action + ":select"
}

// KeyActionInvoke counts data-plane invocations of an action.
func KeyActionInvoke(table, action string) string {
	return "action:" + table + ":" + action + ":invoke"
}

// KeyEntryHit is the data-plane hit bit of one concrete entry.
func KeyEntryHit(table, entryKey string) string { return "entry:" + table + ":" + entryKey }

// KeyMutation counts applications of one mutation class.
func KeyMutation(class string) string { return "mutation:" + class }

// KeyMutationOutcome is one (mutation class, verdict, switch decision)
// cell; class "" means an intended-valid update.
func KeyMutationOutcome(class, verdict string, accepted bool) string {
	if class == "" {
		class = "valid"
	}
	return "outcome:" + class + ":" + verdict + ":" + decision(accepted)
}

// KeyVerdictOutcome is the oracle's per-table (verdict, switch decision)
// accounting cell.
func KeyVerdictOutcome(table, verdict string, accepted bool) string {
	return "verdict:" + table + ":" + verdict + ":" + decision(accepted)
}

// KeyGoal is the bit of one symbolic coverage goal (trace-map key).
func KeyGoal(goal string) string { return "goal:" + goal }

func decision(accepted bool) string {
	if accepted {
		return "accepted"
	}
	return "rejected"
}

// Map is the concurrent coverage map of one campaign.
type Map struct {
	mu     sync.Mutex
	counts map[string]int64 // every static, registered or counted point
	// static holds the model-derived points and registered the points
	// added by Register; together they are the universe.
	static, registered map[string]bool
	covered            int64 // points with a nonzero count
}

// NewMap allocates a map with every model-derived point pre-registered at
// count zero: per-table write/accept/hit/miss and per-(table, action)
// select/invoke.
func NewMap(info *p4info.Info) *Map {
	return NewMapExcluding(info, nil)
}

// NewMapExcluding is NewMap minus the data-plane points of tables the
// static preflight proved unreachable: their hit/miss and action-invoke
// counters never leave zero, so keeping them in the universe makes
// every coverage percentage lie. Control-plane points (write, accept,
// action-select) stay — an unreachable table still takes entries, and
// control-plane campaigns must still exercise it.
func NewMapExcluding(info *p4info.Info, unreachable map[string]bool) *Map {
	m := &Map{counts: map[string]int64{}, static: map[string]bool{}, registered: map[string]bool{}}
	// A table's default action may also appear in its action list, so
	// its invoke key can come up twice; adding a key is idempotent.
	add := func(key string) {
		m.static[key] = true
		m.counts[key] = 0
	}
	for _, t := range info.Tables() {
		add(KeyTableWrite(t.Name))
		add(KeyTableAccept(t.Name))
		dead := unreachable[t.Name]
		if !dead {
			add(KeyTableHit(t.Name))
			add(KeyTableMiss(t.Name))
		}
		for _, a := range t.Actions {
			add(KeyActionSelect(t.Name, a.Name))
			if !dead {
				add(KeyActionInvoke(t.Name, a.Name))
			}
		}
		if !dead {
			add(KeyActionInvoke(t.Name, t.DefaultAction.Name))
		}
	}
	return m
}

// Register adds a dynamic point to the universe at count zero (idempotent
// for already-known keys). Use it to seed the denominator with points the
// campaign is expected to reach, e.g. the symbolic trace map's goals.
func (m *Map) Register(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.static[key] || m.registered[key] {
		return
	}
	m.registered[key] = true
	if _, ok := m.counts[key]; !ok {
		m.counts[key] = 0
	}
}

// Inc bumps a point by one and returns its new count.
func (m *Map) Inc(key string) int64 { return m.Add(key, 1) }

// Add bumps a point by delta (> 0) and returns its new count. Counters
// never decrease, so the point transitioned from uncovered to covered
// exactly when the new count equals the delta.
func (m *Map) Add(key string, delta int64) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.counts[key] + delta
	m.counts[key] = n
	if n == delta {
		m.covered++
	}
	return n
}

// Count reads a point's count (0 for unknown keys).
func (m *Map) Count(key string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[key]
}

// Covered returns the number of distinct points exercised at least once.
func (m *Map) Covered() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.covered
}

// Universe returns the number of registered points (the denominator of
// the campaign's coverage percentage).
func (m *Map) Universe() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.static) + len(m.registered))
}

// TablesAccepted returns how many tables have at least one accepted
// update — the "tables covered" metric of control-plane campaigns, by
// the rule Snapshot.TablesAccepted applies.
func (m *Map) TablesAccepted() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for key, c := range m.counts {
		if _, ok := acceptedTable(key, c); ok {
			n++
		}
	}
	return n
}

// Typed recording helpers. All are safe for concurrent use.

// NoteWrite records a generated update targeting a table.
func (m *Map) NoteWrite(table string) { m.Inc(KeyTableWrite(table)) }

// NoteAccept records a switch-accepted update for a table.
func (m *Map) NoteAccept(table string) { m.Inc(KeyTableAccept(table)) }

// NoteActionSelect records that an accepted entry programs an action.
func (m *Map) NoteActionSelect(table, action string) { m.Inc(KeyActionSelect(table, action)) }

// NoteMutation records one application of a mutation class.
func (m *Map) NoteMutation(class string) { m.Inc(KeyMutation(class)) }

// NoteMutationOutcome records a (mutation class, oracle verdict, switch
// decision) observation; class "" means intended-valid.
func (m *Map) NoteMutationOutcome(class, verdict string, accepted bool) {
	m.Inc(KeyMutationOutcome(class, verdict, accepted))
}

// NoteVerdictOutcome records the oracle's per-table verdict accounting.
func (m *Map) NoteVerdictOutcome(table, verdict string, accepted bool) {
	m.Inc(KeyVerdictOutcome(table, verdict, accepted))
}

// NoteDataPlaneHit records one table traversal from an execution trace:
// entryKey "" means the default action fired (a miss).
func (m *Map) NoteDataPlaneHit(table, entryKey, action string) {
	if entryKey == "" {
		m.Inc(KeyTableMiss(table))
	} else {
		m.Inc(KeyTableHit(table))
		m.Inc(KeyEntryHit(table, entryKey))
	}
	m.Inc(KeyActionInvoke(table, action))
}

// NoteGoal records that a symbolic coverage goal was exercised.
func (m *Map) NoteGoal(goal string) { m.Inc(KeyGoal(goal)) }

// Merge folds a shard's snapshot into the map: counts add point-wise, and
// registered zero-count points (the shard's universe) register here too,
// so a map merged from N shard campaigns is indistinguishable from one
// campaign that did all the work itself. Safe for concurrent use, though
// the parallel engine merges shards in deterministic shard order.
func (m *Map) Merge(s *Snapshot) {
	// Universe membership first: the shard's registered dynamic points
	// (e.g. symbolic goals) join this map's universe whether or not the
	// shard ever exercised them.
	for _, key := range s.Registered {
		m.Register(key)
	}
	for key, n := range s.Counts {
		if n > 0 {
			m.Add(key, n)
		}
	}
}

// Snapshot is an immutable copy of the map at one instant.
type Snapshot struct {
	Universe int64            `json:"universe"`
	Covered  int64            `json:"covered"`
	Counts   map[string]int64 `json:"counts"`
	// Registered lists the dynamic keys that belong to the universe, in
	// sorted order; Merge needs it to preserve universe parity.
	Registered []string `json:"registered,omitempty"`
}

// Snapshot copies every known point, including registered zero-count ones
// (so consumers can compute covered-of-universe).
func (m *Map) Snapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := &Snapshot{
		Universe: int64(len(m.static) + len(m.registered)),
		Covered:  m.covered,
		Counts:   maps.Clone(m.counts),
	}
	for key := range m.registered {
		snap.Registered = append(snap.Registered, key)
	}
	sort.Strings(snap.Registered)
	return snap
}

// acceptedTable names the table whose accept counter is key, when key is
// one and its count n is nonzero: the one definition of an accepted
// table.
func acceptedTable(key string, n int64) (string, bool) {
	if n <= 0 || !strings.HasPrefix(key, "table:") || !strings.HasSuffix(key, ":accept") {
		return "", false
	}
	return strings.TrimSuffix(strings.TrimPrefix(key, "table:"), ":accept"), true
}

// TablesAccepted lists the tables with at least one accepted update, in
// sorted order — the merged table-coverage set the parallel engine's
// determinism contract is stated over.
func (s *Snapshot) TablesAccepted() []string {
	var out []string
	for key, n := range s.Counts {
		if table, ok := acceptedTable(key, n); ok {
			out = append(out, table)
		}
	}
	sort.Strings(out)
	return out
}

// Diff returns the points that grew since prev: counts are deltas, and
// Covered is the number of points newly covered (0 → nonzero).
func (s *Snapshot) Diff(prev *Snapshot) *Snapshot {
	d := &Snapshot{Universe: s.Universe, Counts: map[string]int64{}}
	for key, n := range s.Counts {
		var old int64
		if prev != nil {
			old = prev.Counts[key]
		}
		if n > old {
			d.Counts[key] = n - old
			if old == 0 && n > 0 {
				d.Covered++
			}
		}
	}
	return d
}

// JSON renders the snapshot for coverage.json (stable key order courtesy
// of encoding/json's map sorting).
func (s *Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// ParseSnapshot decodes a snapshot previously rendered by JSON. Unknown
// fields are rejected — a checkpoint store must notice, not silently
// drop, state written by a newer format.
func ParseSnapshot(data []byte) (*Snapshot, error) {
	s := &Snapshot{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("coverage: parsing snapshot: %w", err)
	}
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	if s.Covered < 0 || s.Universe < 0 {
		return nil, fmt.Errorf("coverage: parsing snapshot: negative covered/universe (%d/%d)", s.Covered, s.Universe)
	}
	return s, nil
}

// RestoreMap rebuilds a live Map from a snapshot: a fresh map for the
// model (minus the same unreachable-table exclusions the snapshot was
// taken with) with every count and registered point folded back in.
// Restore(Snapshot(m)) is indistinguishable from m — the checkpoint
// store's round-trip guarantee.
func RestoreMap(info *p4info.Info, unreachable map[string]bool, s *Snapshot) *Map {
	m := NewMapExcluding(info, unreachable)
	m.Merge(s)
	return m
}

// CoveredInUniverse is the number of registered points exercised at
// least once. Points outside the universe (unregistered dynamic keys,
// e.g. entry hit bits and outcome cells) are excluded.
func (s *Snapshot) CoveredInUniverse() int {
	covered := 0
	for _, n := range s.Counts {
		if n > 0 {
			covered++
		}
	}
	// Counts holds registered zero-count keys and exercised dynamic keys;
	// the registered-and-covered intersection is covered keys minus the
	// dynamic surplus.
	surplus := len(s.Counts) - int(s.Universe)
	if surplus < 0 {
		surplus = 0
	}
	covered -= surplus
	if covered < 0 {
		covered = 0
	}
	return covered
}

// Percent is covered-of-universe as a percentage (0 when the universe is
// empty).
func (s *Snapshot) Percent() float64 {
	if s.Universe == 0 {
		return 0
	}
	return 100 * float64(s.CoveredInUniverse()) / float64(s.Universe)
}

// Table renders the per-group coverage table campaigns print with the
// -coverage flag.
func (s *Snapshot) Table() string {
	type row struct {
		name         string
		write, acc   int64
		hit, miss    int64
		entries      int64
		actions      int
		actionsTotal int
	}
	rows := map[string]*row{}
	get := func(name string) *row {
		r := rows[name]
		if r == nil {
			r = &row{name: name}
			rows[name] = r
		}
		return r
	}
	goalsCovered, goalsTotal := 0, 0
	mutations := map[string]int64{}
	for key, n := range s.Counts {
		parts := strings.Split(key, ":")
		switch parts[0] {
		case "table":
			r := get(parts[1])
			switch parts[len(parts)-1] {
			case "write":
				r.write = n
			case "accept":
				r.acc = n
			case "hit":
				r.hit = n
			case "miss":
				r.miss = n
			}
		case "action":
			if parts[len(parts)-1] == "invoke" {
				r := get(parts[1])
				r.actionsTotal++
				if n > 0 {
					r.actions++
				}
			}
		case "entry":
			if n > 0 {
				get(parts[1]).entries++
			}
		case "goal":
			goalsTotal++
			if n > 0 {
				goalsCovered++
			}
		case "mutation":
			mutations[parts[1]] = n
		}
	}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %8s %8s %8s %8s %10s\n",
		"table", "writes", "accepts", "hits", "misses", "entries", "actions")
	for _, name := range names {
		r := rows[name]
		fmt.Fprintf(&b, "%-28s %8d %8d %8d %8d %8d %6d/%d\n",
			r.name, r.write, r.acc, r.hit, r.miss, r.entries, r.actions, r.actionsTotal)
	}
	if goalsTotal > 0 {
		fmt.Fprintf(&b, "symbolic goals covered: %d/%d\n", goalsCovered, goalsTotal)
	}
	if len(mutations) > 0 {
		classes := make([]string, 0, len(mutations))
		for c := range mutations {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		fmt.Fprintf(&b, "mutation classes applied: %d (", len(classes))
		for i, c := range classes {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%d", c, mutations[c])
		}
		b.WriteString(")\n")
	}
	fmt.Fprintf(&b, "coverage points: %d/%d model points covered (%.1f%%), %d total incl. dynamic\n",
		s.CoveredInUniverse(), s.Universe, s.Percent(), s.Covered)
	return b.String()
}
