package pdpi

import (
	"fmt"
	"sync"
	"testing"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/value"
	"switchv/models"
)

// route returns the ipv4_table entry for 10.<n>.0.0/16 in vrf 1, whose
// action points at nexthop nh.
func route(t *testing.T, n, nh uint64) *Entry {
	e := ipv4Entry(t, 1, 0x0a000000|n<<16, 16)
	e.Action.Args[0] = value.New(nh, 10)
	return e
}

func vrfEntry(id uint64) *Entry {
	p := models.Middleblock()
	tbl, _ := p.TableByName("vrf_table")
	return &Entry{
		Table:   tbl,
		Matches: []Match{{Key: "vrf_id", Kind: ir.MatchExact, Value: value.New(id, 10)}},
		Action:  &ActionInvocation{Action: p.NoAction},
	}
}

func mustDo(t *testing.T, op func(*Entry) error, e *Entry) {
	t.Helper()
	if err := op(e); err != nil {
		t.Fatal(err)
	}
}

// render lists entries as their String(), for order comparisons.
func render(es []*Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.String()
	}
	return out
}

func sameOrder(t *testing.T, what string, got, want []*Entry) {
	t.Helper()
	if fmt.Sprint(render(got)) != fmt.Sprint(render(want)) {
		t.Errorf("%s:\n got  %v\n want %v", what, render(got), render(want))
	}
}

// TestStoreOrder pins the order contract: inserts go last, a modify
// keeps the entry's position, and a delete followed by a reinsert puts
// the entry last again; Clone keeps the order.
func TestStoreOrder(t *testing.T) {
	s := NewStore()
	a, b, c := route(t, 1, 1), route(t, 2, 1), route(t, 3, 1)
	for _, e := range []*Entry{a, b, c} {
		mustDo(t, s.Insert, e)
	}
	table := a.Table.Name
	sameOrder(t, "after inserts", s.Entries(table), []*Entry{a, b, c})

	b2 := route(t, 2, 7)
	mustDo(t, s.Modify, b2)
	sameOrder(t, "after modify", s.Entries(table), []*Entry{a, b2, c})
	if got, _ := s.Get(b); got != b2 {
		t.Errorf("Get after modify = %v, want %v", got, b2)
	}

	mustDo(t, s.Delete, a)
	sameOrder(t, "after delete", s.Entries(table), []*Entry{b2, c})
	mustDo(t, s.Insert, a)
	sameOrder(t, "after reinsert", s.Entries(table), []*Entry{b2, c, a})

	if err := s.Insert(route(t, 3, 9)); err == nil {
		t.Error("duplicate insert succeeded")
	}
	if err := s.Modify(route(t, 4, 1)); err == nil {
		t.Error("modify of a missing entry succeeded")
	}
	if err := s.Delete(route(t, 4, 1)); err == nil {
		t.Error("delete of a missing entry succeeded")
	}

	// All groups by table in program order, each in insertion order.
	v := vrfEntry(1)
	mustDo(t, s.Insert, v)
	prog := models.Middleblock()
	want := []*Entry{}
	for _, tbl := range prog.Tables {
		switch tbl.Name {
		case table:
			want = append(want, b2, c, a)
		case v.Table.Name:
			want = append(want, v)
		}
	}
	sameOrder(t, "All", s.All(prog), want)
	if s.Len() != 4 || s.TableLen(table) != 3 {
		t.Errorf("Len = %d, TableLen = %d", s.Len(), s.TableLen(table))
	}

	cl := s.Clone()
	sameOrder(t, "clone", cl.Entries(table), []*Entry{b2, c, a})
	sameOrder(t, "clone All", cl.All(prog), s.All(prog))
}

// TestStoreSnapshots: a slice from Entries or All, taken before any
// insert, modify, delete, reinsert or Clear, stays unchanged after all
// of them; and a caller appending to one cannot reach the store, nor the
// store overwrite what the caller appended.
func TestStoreSnapshots(t *testing.T) {
	prog := models.Middleblock()
	s := NewStore()
	a, b, c := route(t, 1, 1), route(t, 2, 1), route(t, 3, 1)
	table := a.Table.Name
	for _, e := range []*Entry{a, b, c} {
		mustDo(t, s.Insert, e)
	}

	// Three rows leave the row slice with spare capacity.
	extra := route(t, 9, 1)
	ext := append(s.Entries(table), extra)
	mustDo(t, s.Insert, route(t, 4, 1))
	if ext[len(ext)-1] != extra {
		t.Error("an insert overwrote what a caller appended to an Entries result")
	}
	if _, ok := s.Get(extra); ok || s.TableLen(table) != 4 {
		t.Error("appending to an Entries result reached the store")
	}

	type snapshot struct {
		before       string
		entries, all []*Entry
		want         string
	}
	var snaps []snapshot
	for _, m := range []struct {
		name string
		op   func()
	}{
		{"modify", func() { mustDo(t, s.Modify, route(t, 2, 5)) }},
		{"delete", func() { mustDo(t, s.Delete, a) }},
		{"reinsert", func() { mustDo(t, s.Insert, a) }},
		{"insert", func() { mustDo(t, s.Insert, route(t, 5, 1)) }},
		{"delete last", func() { mustDo(t, s.Delete, route(t, 5, 1)) }},
		{"clear", s.Clear},
	} {
		rows := s.Entries(table)
		snaps = append(snaps, snapshot{m.name, rows, s.All(prog), fmt.Sprint(render(rows))})
		m.op()
	}
	for _, sn := range snaps {
		if got := fmt.Sprint(render(sn.entries)); got != sn.want {
			t.Errorf("Entries taken before %s changed:\n got  %s\n want %s", sn.before, got, sn.want)
		}
		if got := fmt.Sprint(render(sn.all)); got != sn.want {
			t.Errorf("All taken before %s changed:\n got  %s\n want %s", sn.before, got, sn.want)
		}
	}
	if s.Len() != 0 || len(s.Entries(table)) != 0 {
		t.Errorf("Clear left %d entries", s.Len())
	}
}

// TestStoreCloneIndependent: mutations of a clone never show in its
// original, nor the other way round, including inserts that both sides
// make after the clone.
func TestStoreCloneIndependent(t *testing.T) {
	s := NewStore()
	a, b, c := route(t, 1, 1), route(t, 2, 1), route(t, 3, 1)
	for _, e := range []*Entry{a, b, c} {
		mustDo(t, s.Insert, e)
	}
	table := a.Table.Name
	cl := s.Clone()

	// Both sides append into what was one row slice with spare capacity.
	x, y := route(t, 10, 1), route(t, 11, 1)
	mustDo(t, s.Insert, x)
	mustDo(t, cl.Insert, y)
	sameOrder(t, "original", s.Entries(table), []*Entry{a, b, c, x})
	sameOrder(t, "clone", cl.Entries(table), []*Entry{a, b, c, y})

	b2 := route(t, 2, 8)
	mustDo(t, cl.Modify, b2)
	mustDo(t, cl.Delete, a)
	sameOrder(t, "original after clone mutations", s.Entries(table), []*Entry{a, b, c, x})
	if got, _ := s.Get(b); got != b {
		t.Error("a modify of the clone reached the original")
	}

	mustDo(t, s.Delete, b)
	mustDo(t, s.Insert, vrfEntry(3))
	sameOrder(t, "clone after original mutations", cl.Entries(table), []*Entry{b2, c, y})
	if cl.Len() != 3 {
		t.Errorf("clone Len = %d, want 3", cl.Len())
	}
	if _, ok := cl.GetKey(a.Table.Name, a.Key()); ok {
		t.Error("GetKey finds an entry deleted from the clone")
	}
	if got, ok := s.GetKey(a.Table.Name, a.Key()); !ok || got != a {
		t.Error("GetKey lost an entry of the original")
	}
}

// TestStoreConcurrentReaders reads a frozen store from many goroutines,
// as the parallel generator's shards do; run it under -race.
func TestStoreConcurrentReaders(t *testing.T) {
	prog := models.Middleblock()
	s := NewStore()
	var want []*Entry
	for n := uint64(0); n < 64; n++ {
		e := route(t, n, n%4)
		mustDo(t, s.Insert, e)
		want = append(want, e)
	}
	table := want[0].Table.Name
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rows, all := s.Entries(table), s.All(prog)
				if len(rows) != len(want) || len(all) != len(want) || s.Len() != len(want) {
					errs <- fmt.Errorf("read %d rows, %d in All, want %d", len(rows), len(all), len(want))
					return
				}
				for j, e := range rows {
					if e != want[j] || all[j] != e {
						errs <- fmt.Errorf("row %d out of order", j)
						return
					}
					if got, ok := s.Get(e); !ok || got != e {
						errs <- fmt.Errorf("Get(%s) missed", e.Key())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
