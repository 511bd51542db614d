package switchv

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
	"switchv/internal/symbolic"
	"switchv/internal/workload"
	"switchv/models"
)

// kindCounts tallies incidents by kind.
func kindCounts(incidents []Incident) map[string]int {
	n := map[string]int{}
	for _, inc := range incidents {
		n[inc.Kind]++
	}
	return n
}

// lateDevice relays the switch's packet-ins in order, each one delay
// after the switch emitted it.
type lateDevice struct {
	*switchsim.Switch
	pins chan p4rt.PacketIn
}

func newLateDevice(t *testing.T, sw *switchsim.Switch, delay time.Duration) *lateDevice {
	t.Helper()
	t.Cleanup(sw.Close)
	type stamped struct {
		pin p4rt.PacketIn
		due time.Time
	}
	// Both buffers are as deep as the switch's own stream, so the relay
	// never holds the switch back.
	queue := make(chan stamped, 1024)
	d := &lateDevice{Switch: sw, pins: make(chan p4rt.PacketIn, 1024)}
	go func() {
		defer close(queue)
		for pin := range sw.PacketIns() {
			queue <- stamped{pin, time.Now().Add(delay)}
		}
	}()
	go func() {
		defer close(d.pins)
		for s := range queue {
			time.Sleep(time.Until(s.due))
			d.pins <- s.pin
		}
	}()
	return d
}

func (d *lateDevice) PacketIns() <-chan p4rt.PacketIn { return d.pins }

// TestPacketIOOrderedNotTimed: the packet-IO probe ends on events of the
// ordered packet-in stream, not on fixed windows, and a round leaves
// none of its own packet-ins behind.
func TestPacketIOOrderedNotTimed(t *testing.T) {
	const delay = 200 * time.Millisecond
	run := func(t *testing.T, fault switchsim.Fault, rounds int) []map[string]int {
		t.Helper()
		sw := switchsim.New("middleblock", fault)
		h := New(p4info.New(models.MustLoad("middleblock")), newLateDevice(t, sw, delay), sw)
		if err := h.PushPipeline(); err != nil {
			t.Fatal(err)
		}
		var out []map[string]int
		for r := 0; r < rounds; r++ {
			rep, err := h.RunDataPlane(fixtureEntries("middleblock"), DataPlaneOptions{})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, kindCounts(rep.Incidents))
		}
		return out
	}
	// An echo that arrives after any fixed echo window is still an echo:
	// it precedes the submit-to-ingress punt on the stream.
	t.Run("late-echo", func(t *testing.T) {
		got := run(t, switchsim.FaultPacketOutPuntedBack, 1)[0]
		if got["packet-out-punted-back"] != 1 || got["submit-to-ingress-lost"] != 0 {
			t.Errorf("incidents by kind = %v, want one packet-out-punted-back and no submit-to-ingress-lost", got)
		}
	})
	// A punt left by an earlier round must not pass for the probe's.
	t.Run("rounds-consume-their-punts", func(t *testing.T) {
		for r, got := range run(t, switchsim.FaultSubmitIngressDropped, 2) {
			if got["submit-to-ingress-lost"] != 1 || got["packet-out-punted-back"] != 0 {
				t.Errorf("round %d: incidents by kind = %v, want one submit-to-ingress-lost and no echo", r, got)
			}
		}
	})
}

// TestPacketIOClosedStream: a closed packet-in stream is neither an echo
// nor the probe's punt; the probe reports that it could not observe.
func TestPacketIOClosedStream(t *testing.T) {
	h, sw := newHarness(t, "middleblock", switchsim.FaultSubmitIngressDropped)
	sw.Close()
	rep, err := h.RunDataPlane(fixtureEntries("middleblock"), DataPlaneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var failed []Incident
	for _, inc := range rep.Incidents {
		switch inc.Kind {
		case "packet-out-failed":
			failed = append(failed, inc)
		case "packet-out-punted-back", "submit-to-ingress-lost":
			t.Errorf("closed stream read as an echo or a lost punt: %s", inc)
		}
	}
	if len(failed) != 1 || !strings.Contains(failed[0].Detail, "packet-in stream is closed") {
		t.Errorf("packet-out-failed incidents = %v, want one naming the closed stream", failed)
	}
}

// splitDevice sends every Write as one-update Writes, the way the
// harness wrote entries before it batched them.
type splitDevice struct{ *switchsim.Switch }

func (d splitDevice) Write(req p4rt.WriteRequest) p4rt.WriteResponse {
	var resp p4rt.WriteResponse
	for _, u := range req.Updates {
		one := d.Switch.Write(p4rt.WriteRequest{DeviceID: req.DeviceID, Updates: []p4rt.Update{u}})
		resp.Statuses = append(resp.Statuses, one.Statuses...)
	}
	return resp
}

// TestBatchedWritesMatchPerEntry: batching install, churn and wipe
// changes only the RPC count. Every data-plane recipe of the fault matrix
// reports the same incidents, detail for detail, through one-update
// writes as through batched ones.
func TestBatchedWritesMatchPerEntry(t *testing.T) {
	split := func(sw *switchsim.Switch) p4rt.Device { return splitDevice{sw} }
	for _, fault := range switchsim.AllFaults() {
		rc := matrixRecipes[fault]
		if rc.tool != "p4-symbolic" {
			continue
		}
		t.Run(string(fault), func(t *testing.T) {
			batched := runRecipe(t, fault, rc, nil, fault)
			perEntry := runRecipe(t, fault, rc, split, fault)
			if !reflect.DeepEqual(batched, perEntry) {
				t.Errorf("batched writes reported\n%v\none-update writes reported\n%v", batched, perEntry)
			}
		})
	}
}

// lostRunDevice answers its first multi-update Write the way
// p4rt.Client answers a Write that died in transit: one INTERNAL status
// for the whole request, and nothing applied.
type lostRunDevice struct {
	*switchsim.Switch
	lost []p4rt.Update
}

const lostMessage = "transport: p4rt: connection closed"

func (d *lostRunDevice) Write(req p4rt.WriteRequest) p4rt.WriteResponse {
	if d.lost == nil && len(req.Updates) > 1 {
		d.lost = req.Updates
		return p4rt.WriteResponse{Statuses: []p4rt.Status{p4rt.Statusf(p4rt.Internal, lostMessage)}}
	}
	return d.Switch.Write(req)
}

// TestBatchedTransportFailure: a transport failure's single status
// applies to every update of its run, and each rejected entry is
// reported on its own in the one-update format.
func TestBatchedTransportFailure(t *testing.T) {
	h, sw := newHarness(t, "middleblock")
	dev := &lostRunDevice{Switch: sw}
	h.Dev = dev
	rep, err := h.RunDataPlane(fixtureEntries("middleblock"), DataPlaneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dev.lost) < 2 {
		t.Fatalf("no multi-update write reached the device")
	}
	var want, got []string
	for i := range dev.lost {
		e, err := p4rt.FromWire(h.Info, &dev.lost[i].Entry)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("switch rejected valid entry %s: #0 INTERNAL: %s", e, lostMessage))
	}
	for _, inc := range rep.Incidents {
		if inc.Kind == "install-rejected" && strings.HasSuffix(inc.Detail, lostMessage) {
			got = append(got, inc.Detail)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("install-rejected details\n%q\nwant one per update of the lost write\n%q", got, want)
	}
}

// recordingDevice records the updates of every Write it passes on.
type recordingDevice struct {
	*switchsim.Switch
	writes  int
	updates []p4rt.Update
}

func (d *recordingDevice) Write(req p4rt.WriteRequest) p4rt.WriteResponse {
	d.writes++
	d.updates = append(d.updates, req.Updates...)
	return d.Switch.Write(req)
}

// TestDataPlaneWriteRuns: the seed-42 798-entry middleblock round (Table
// 3's Inst1) installs and wipes in a handful of writes, not one per
// entry, and the writes carry exactly the per-entry update sequence:
// inserts in the given order, then deletes table by table in reverse
// TopoOrder.
func TestDataPlaneWriteRuns(t *testing.T) {
	prog := models.MustLoad("middleblock")
	entries := workload.MustEntries(prog, 798, 42)
	sw := switchsim.New("middleblock")
	dev := &recordingDevice{Switch: sw}
	h := New(p4info.New(prog), dev, sw)
	if err := h.PushPipeline(); err != nil {
		t.Fatal(err)
	}
	rep, err := h.RunDataPlane(entries, DataPlaneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := kindCounts(rep.Incidents); n["install-rejected"]+n["teardown-rejected"] != 0 {
		t.Fatalf("round did not install and wipe cleanly: %v", n)
	}
	want := entryUpdates(p4rt.Insert, entries)
	byTable := map[string][]*pdpi.Entry{}
	for _, e := range entries {
		byTable[e.Table.Name] = append(byTable[e.Table.Name], e)
	}
	topo := h.Info.TopoOrder()
	for i := len(topo) - 1; i >= 0; i-- {
		want = append(want, entryUpdates(p4rt.Delete, byTable[topo[i].Name])...)
	}
	if !reflect.DeepEqual(dev.updates, want) {
		t.Errorf("the writes' %d updates are not the per-entry sequence of %d updates", len(dev.updates), len(want))
	}
	if dev.writes > 20 {
		t.Errorf("%d writes for %d updates, want at most 20", dev.writes, len(dev.updates))
	}
	t.Logf("%d updates in %d writes", len(dev.updates), dev.writes)
}

// strayDevice adds an entry of a table the P4Info does not name to every
// read-back from its from-th Read on.
type strayDevice struct {
	*switchsim.Switch
	from, reads int
}

func (d *strayDevice) Read(req p4rt.ReadRequest) (p4rt.ReadResponse, error) {
	resp, err := d.Switch.Read(req)
	d.reads++
	if err == nil && d.reads >= d.from {
		resp.Entries = append(resp.Entries, p4rt.TableEntry{TableID: 0xdead})
	}
	return resp, err
}

// TestWipeUnknownTable: wipe cannot order the delete of an entry whose
// table the P4Info does not name, so it fails instead of leaving the
// entry installed: as state-unavailable before the round, and as
// teardown-rejected after it.
func TestWipeUnknownTable(t *testing.T) {
	for _, tc := range []struct {
		from int
		kind string
	}{{1, "state-unavailable"}, {2, "teardown-rejected"}} {
		t.Run(tc.kind, func(t *testing.T) {
			h, sw := newHarness(t, "middleblock")
			h.Dev = &strayDevice{Switch: sw, from: tc.from}
			rep, err := h.RunDataPlane(fixtureEntries("middleblock"), DataPlaneOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var found []Incident
			for _, inc := range rep.Incidents {
				if inc.Kind == tc.kind {
					found = append(found, inc)
				}
			}
			if len(found) != 1 || !strings.Contains(found[0].Detail, "table ID 57005") {
				t.Errorf("%s incidents = %v, want one naming table ID 57005", tc.kind, found)
			}
		})
	}
}

// droppingPlane reports every injected packet dropped, without
// reaching a switch.
type droppingPlane struct{}

func (droppingPlane) InjectFrame(p4rt.InjectRequest) (p4rt.InjectResult, error) {
	return p4rt.InjectResult{Dropped: true}, nil
}

// TestGoalMissed: a table goal's packet that hits its goal in none of
// its valid behaviors is a defect of the validator's own generation,
// reported as goal-missed beside the packet's behavior verdict, never
// instead of it. Two route goals swap packets in the goal cache, so a
// round sends each goal the other's packet.
func TestGoalMissed(t *testing.T) {
	h, sw := newHarness(t, "middleblock")
	entries := fixtureEntries("middleblock")
	cache := symbolic.NewCache()
	rep, err := h.RunDataPlane(entries, DataPlaneOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Incidents) != 0 {
		t.Fatalf("clean round reported %v", rep.Incidents)
	}

	prog := h.Info.Program()
	store := pdpi.NewStore()
	for _, e := range entries {
		if err := store.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	ex, err := symbolic.New(prog, store, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var routes []string
	for _, g := range ex.Goals(symbolic.CoverEntries) {
		if strings.HasPrefix(g.Key, "table:ipv4_table:entry:") {
			routes = append(routes, g.Key)
		}
	}
	if len(routes) < 2 {
		t.Fatalf("fixture has %d route goals, want at least 2", len(routes))
	}
	a, b := routes[0], routes[1]
	fp := func(key string) string {
		return symbolic.GoalFingerprint(prog, symbolic.Options{}, key, ex.DepEntries(key))
	}
	pa, okA := cache.GetGoal(fp(a))
	pb, okB := cache.GetGoal(fp(b))
	if !okA || !okB || pa == nil || pb == nil {
		t.Fatalf("no cached packets for %s and %s", a, b)
	}
	cache.PutGoal(fp(a), &symbolic.TestPacket{GoalKey: a, Port: pb.Port, Data: pb.Data})
	cache.PutGoal(fp(b), &symbolic.TestPacket{GoalKey: b, Port: pa.Port, Data: pa.Data})

	// verdicts lists a round's incidents as "kind goal", in order.
	verdicts := func(dp DataPlane) []string {
		t.Helper()
		rep, err := New(h.Info, sw, dp).RunDataPlane(entries, DataPlaneOptions{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, inc := range rep.Incidents {
			if inc.Tool != "p4-symbolic" {
				t.Errorf("unexpected incident %s", inc)
			}
			out = append(out, inc.Kind+" "+strings.TrimSuffix(strings.Fields(inc.Detail)[1], ":"))
		}
		return out
	}
	// The clean switch agrees with the model on both packets.
	if got, want := verdicts(sw), []string{"goal-missed " + a, "goal-missed " + b}; !reflect.DeepEqual(got, want) {
		t.Errorf("clean switch: incidents %q, want %q", got, want)
	}
	// A switch that drops the routed packets gets both verdicts on each.
	got := strings.Join(verdicts(droppingPlane{}), "\n")
	for _, g := range []string{a, b} {
		if want := "behavior-mismatch " + g + "\ngoal-missed " + g; !strings.Contains(got, want) {
			t.Errorf("dropping switch: incidents\n%s\nlack\n%s", got, want)
		}
	}
}
