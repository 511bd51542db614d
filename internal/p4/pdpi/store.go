package pdpi

import (
	"fmt"
	"sort"
	"sync"

	"switchv/internal/p4/ir"
)

// Store holds the installed entries of a switch or simulator, keyed by
// table and canonical match key. It implements the P4Runtime insert,
// modify and delete semantics on the semantic entry representation.
//
// Each table keeps its rows in insertion order directly: an insert goes
// last, a modify keeps the entry's position, and a delete followed by a
// reinsert puts the entry last again. The interpreter's priority
// tie-breaking and the compiled rows depend on that order. Modify and
// Delete copy the table's row slice instead of writing it in place, so a
// slice that Entries or All handed out stays a snapshot of the moment it
// was taken.
//
// A Store is safe for concurrent readers (the parallel symbolic-
// generation and simulation engines share one store across workers);
// mutations must not race with reads, as everywhere else. Views built
// over a store (symbolic.New, compile.New) assume it is frozen: fill
// the store first, and build a new view after any mutation.
type Store struct {
	mu      sync.Mutex
	tables  map[string]*table
	version uint64 // bumped by every mutation; see Version
}

// table is one table's installed entries: an index by canonical match
// key and the rows in insertion order. rows is shared with snapshots
// and clones, so it is only ever appended to, never written in place.
type table struct {
	byKey map[string]*Entry
	rows  []*Entry
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{tables: map[string]*table{}}
}

// Len returns the total number of installed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, t := range s.tables {
		n += len(t.rows)
	}
	return n
}

// TableLen returns the number of entries installed in a table.
func (s *Store) TableLen(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tables[name]; t != nil {
		return len(t.rows)
	}
	return 0
}

// Version returns a number that every successful Insert, Modify, Delete
// and Clear changes, so a view derived from the store can tell whether
// the store has changed since.
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Insert adds an entry; it fails if an entry with the same match already
// exists.
func (s *Store) Insert(e *Entry) error {
	return s.InsertKey(e, e.Key())
}

// InsertKey is Insert for a caller that has already rendered e.Key().
func (s *Store) InsertKey(e *Entry, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tables[e.Table.Name]
	if t == nil {
		t = &table{byKey: map[string]*Entry{}}
		s.tables[e.Table.Name] = t
	}
	if _, dup := t.byKey[key]; dup {
		return fmt.Errorf("pdpi: entry already exists: %s", key)
	}
	t.byKey[key] = e
	t.rows = append(t.rows, e)
	s.version++
	return nil
}

// Modify replaces the action of an existing entry, keeping its position;
// it fails if the entry does not exist.
func (s *Store) Modify(e *Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := e.Key()
	t := s.tables[e.Table.Name]
	old, ok := t.lookup(key)
	if !ok {
		return fmt.Errorf("pdpi: entry does not exist: %s", key)
	}
	t.byKey[key] = e
	rows := make([]*Entry, len(t.rows))
	copy(rows, t.rows)
	rows[t.index(old)] = e
	t.rows = rows
	s.version++
	return nil
}

// Delete removes an entry by match; it fails if the entry does not exist.
func (s *Store) Delete(e *Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := e.Key()
	t := s.tables[e.Table.Name]
	old, ok := t.lookup(key)
	if !ok {
		return fmt.Errorf("pdpi: entry does not exist: %s", key)
	}
	delete(t.byKey, key)
	i := t.index(old)
	rows := make([]*Entry, 0, len(t.rows)-1)
	rows = append(rows, t.rows[:i]...)
	t.rows = append(rows, t.rows[i+1:]...)
	s.version++
	return nil
}

func (t *table) lookup(key string) (*Entry, bool) {
	if t == nil {
		return nil, false
	}
	e, ok := t.byKey[key]
	return e, ok
}

// index returns the position of an installed entry in rows.
func (t *table) index(e *Entry) int {
	for i, r := range t.rows {
		if r == e {
			return i
		}
	}
	panic("pdpi: store index out of sync with its rows")
}

// Get returns the entry with the same match as e, if installed.
func (s *Store) Get(e *Entry) (*Entry, bool) {
	return s.GetKey(e.Table.Name, e.Key())
}

// GetKey returns the entry of a table whose Key() is key, if installed.
func (s *Store) GetKey(name, key string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tables[name].lookup(key)
}

// Entries returns the entries of a table in insertion order. The result
// is a snapshot that later mutations leave unchanged; callers must not
// mutate it.
func (s *Store) Entries(name string) []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rowsLocked(name)
}

// rowsLocked returns a table's rows with the capacity clipped, so an
// append by whoever holds the result cannot write into the store's
// backing array.
func (s *Store) rowsLocked(name string) []*Entry {
	t := s.tables[name]
	if t == nil {
		return nil
	}
	return t.rows[:len(t.rows):len(t.rows)]
}

// All returns every installed entry, grouped by table in the program's
// declaration order when prog is non-nil, else by table name.
func (s *Store) All(prog *ir.Program) []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	if prog != nil {
		for _, t := range prog.Tables {
			names = append(names, t.Name)
		}
	} else {
		for name := range s.tables {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	var out []*Entry
	for _, name := range names {
		out = append(out, s.rowsLocked(name)...)
	}
	return out
}

// Clone returns an independent store over the same entries and the same
// order. Installed entries are immutable by convention (updates replace
// the pointer), so the entries themselves are shared, making Clone cheap
// enough for the oracle's per-batch replay.
func (s *Store) Clone() *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := NewStore()
	for name, t := range s.tables {
		byKey := make(map[string]*Entry, len(t.byKey))
		for k, e := range t.byKey {
			byKey[k] = e
		}
		out.tables[name] = &table{byKey: byKey, rows: s.rowsLocked(name)}
	}
	return out
}

// Clear removes all entries.
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables = map[string]*table{}
	s.version++
}
