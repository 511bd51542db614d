package switchsim

import (
	"reflect"
	"testing"

	"switchv/internal/p4/pdpi"
	"switchv/internal/p4rt"
	"switchv/internal/testutil"
	"switchv/models"
)

// readAndCompare reads the switch back and checks the read against the
// wire form of its installed entries rendered afresh, so the wire memo
// can never return what the switch no longer holds, and checks that the
// memo then holds the installed entries and nothing else.
func readAndCompare(t *testing.T, sw *Switch, when string) p4rt.ReadResponse {
	t.Helper()
	rr, err := sw.Read(p4rt.ReadRequest{})
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	var want []p4rt.TableEntry
	for _, e := range sw.appState.All(sw.info.Program()) {
		want = append(want, p4rt.ToWire(e))
	}
	if !reflect.DeepEqual(rr.Entries, want) {
		t.Fatalf("%s: read %d entries that differ from the %d installed", when, len(rr.Entries), len(want))
	}
	if len(sw.wire) != len(want) {
		t.Errorf("%s: the wire memo holds %d entries, %d are installed", when, len(sw.wire), len(want))
	}
	return rr
}

// TestReadReflectsChanges: a read after a modify, a delete or a restart
// shows the switch's entries as they are then, not as the wire memo saw
// them at an earlier read.
func TestReadReflectsChanges(t *testing.T) {
	sw, info := startSwitch(t, "middleblock")
	defer sw.Close()
	readAndCompare(t, sw, "after install")

	// Modify an installed entry's free (non-reference) action argument.
	var mod *pdpi.Entry
	for _, e := range sw.appState.All(info.Program()) {
		if e.Action == nil {
			continue
		}
		for i, p := range e.Action.Action.Params {
			if p.RefersTo == nil {
				mod = e.Clone()
				mod.Action.Args[i] = mod.Action.Args[i].Not()
				break
			}
		}
		if mod != nil {
			break
		}
	}
	if mod == nil {
		t.Fatal("no fixture entry has a free action argument")
	}
	if resp := sw.Write(p4rt.WriteRequest{Updates: []p4rt.Update{{Type: p4rt.Modify, Entry: p4rt.ToWire(mod)}}}); !resp.OK() {
		t.Fatalf("modify %s: %s", mod, resp.String())
	}
	rr := readAndCompare(t, sw, "after modify")
	found := false
	for i := range rr.Entries {
		found = found || reflect.DeepEqual(rr.Entries[i], p4rt.ToWire(mod))
	}
	if !found {
		t.Errorf("read after modify lacks %s", mod)
	}

	// Delete the last-installed entry: nothing references it.
	store := pdpi.NewStore()
	testutil.RoutingFixture(models.MustLoad("middleblock"), store)
	order := testutil.InstallOrder(info, store)
	del := order[len(order)-1]
	if resp := sw.Write(p4rt.WriteRequest{Updates: []p4rt.Update{{Type: p4rt.Delete, Entry: p4rt.ToWire(del)}}}); !resp.OK() {
		t.Fatalf("delete %s: %s", del, resp.String())
	}
	if rr := readAndCompare(t, sw, "after delete"); len(rr.Entries) != store.Len()-1 {
		t.Errorf("read %d entries after the delete, want %d", len(rr.Entries), store.Len()-1)
	}

	// A restart empties the switch; a reinstall is read back afresh.
	sw.Restart()
	if err := sw.SetForwardingPipelineConfig(p4rt.ForwardingPipelineConfig{P4Info: info.Text()}); err != nil {
		t.Fatal(err)
	}
	if rr := readAndCompare(t, sw, "after restart"); len(rr.Entries) != 0 {
		t.Errorf("read %d entries after the restart", len(rr.Entries))
	}
	for _, e := range order {
		if resp := sw.Write(p4rt.WriteRequest{Updates: []p4rt.Update{{Type: p4rt.Insert, Entry: p4rt.ToWire(e)}}}); !resp.OK() {
			t.Fatalf("reinstalling %s: %s", e, resp.String())
		}
	}
	readAndCompare(t, sw, "after reinstall")
}

// TestReadDropsTernaryLeavesMemo: the read-drops-ternary fault alters
// only what one read returns, so two reads are equal and the memo keeps
// every installed entry's ternary matches.
func TestReadDropsTernaryLeavesMemo(t *testing.T) {
	sw, _ := startSwitch(t, "middleblock", FaultReadDropsTernary)
	defer sw.Close()
	first, err := sw.Read(p4rt.ReadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := sw.Read(p4rt.ReadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("two reads under read-drops-ternary differ")
	}
	ternary := 0
	for e, te := range sw.wire {
		if !reflect.DeepEqual(te, p4rt.ToWire(e)) {
			t.Errorf("memo holds an altered wire form of %s", e)
		}
		for _, m := range te.Match {
			if m.Ternary != nil {
				ternary++
			}
		}
	}
	if ternary == 0 {
		t.Error("the fixture installed no ternary match, so the fault went untested")
	}
	for _, te := range first.Entries {
		for _, m := range te.Match {
			if m.Ternary != nil {
				t.Error("a read under read-drops-ternary returned a ternary match")
			}
		}
	}
}
