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
// A Store is safe for concurrent readers (the parallel symbolic-
// generation and simulation engines share one store across workers);
// mutations must not race with reads, as everywhere else. Views built
// over a store (symbolic.New, compile.New) assume it is frozen: fill
// the store first, and build a new view after any mutation.
type Store struct {
	mu     sync.Mutex
	tables map[string]map[string]*Entry
	order  int
	seq    map[string]int // insertion order per entry key, for stable wins

	// ordered caches Entries() results per table; mutations invalidate it.
	ordered map[string][]*Entry
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		tables:  map[string]map[string]*Entry{},
		seq:     map[string]int{},
		ordered: map[string][]*Entry{},
	}
}

// Len returns the total number of installed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, t := range s.tables {
		n += len(t)
	}
	return n
}

// TableLen returns the number of entries installed in a table.
func (s *Store) TableLen(table string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tables[table])
}

// Insert adds an entry; it fails if an entry with the same match already
// exists.
func (s *Store) Insert(e *Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := e.Key()
	t := s.tables[e.Table.Name]
	if t == nil {
		t = map[string]*Entry{}
		s.tables[e.Table.Name] = t
	}
	if _, dup := t[key]; dup {
		return fmt.Errorf("pdpi: entry already exists: %s", key)
	}
	t[key] = e
	s.order++
	s.seq[key] = s.order
	delete(s.ordered, e.Table.Name)
	return nil
}

// Modify replaces the action of an existing entry; it fails if the entry
// does not exist.
func (s *Store) Modify(e *Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := e.Key()
	t := s.tables[e.Table.Name]
	if _, ok := t[key]; !ok {
		return fmt.Errorf("pdpi: entry does not exist: %s", key)
	}
	t[key] = e
	delete(s.ordered, e.Table.Name)
	return nil
}

// Delete removes an entry by match; it fails if the entry does not exist.
func (s *Store) Delete(e *Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := e.Key()
	t := s.tables[e.Table.Name]
	if _, ok := t[key]; !ok {
		return fmt.Errorf("pdpi: entry does not exist: %s", key)
	}
	delete(t, key)
	delete(s.seq, key)
	delete(s.ordered, e.Table.Name)
	return nil
}

// Get returns the entry with the same match as e, if installed.
func (s *Store) Get(e *Entry) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	got, ok := s.tables[e.Table.Name][e.Key()]
	return got, ok
}

// Entries returns the entries of a table in deterministic (insertion)
// order. The result is cached until the table changes; callers must not
// mutate it.
func (s *Store) Entries(table string) []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entriesLocked(table)
}

func (s *Store) entriesLocked(table string) []*Entry {
	if out, ok := s.ordered[table]; ok {
		return out
	}
	t := s.tables[table]
	out := make([]*Entry, 0, len(t))
	for _, e := range t {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return s.seq[out[i].Key()] < s.seq[out[j].Key()] })
	s.ordered[table] = out
	return out
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
		out = append(out, s.entriesLocked(name)...)
	}
	return out
}

// Clone returns an independent store over the same entries. Installed
// entries are immutable by convention (updates replace the pointer), so
// the entries themselves are shared, making Clone cheap enough for the
// oracle's per-batch replay.
func (s *Store) Clone() *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := NewStore()
	out.order = s.order
	for table, entries := range s.tables {
		nt := make(map[string]*Entry, len(entries))
		for k, e := range entries {
			nt[k] = e
			out.seq[k] = s.seq[k]
		}
		out.tables[table] = nt
	}
	return out
}

// Clear removes all entries.
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables = map[string]map[string]*Entry{}
	s.seq = map[string]int{}
	s.ordered = map[string][]*Entry{}
	s.order = 0
}
