package switchv

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"switchv/internal/fuzzer"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
	"switchv/models"
)

// TestSelfHealingRecoversAfterRestart: a restart wipes the switch; the
// self-healing wrapper must re-push the pipeline, replay the entry log
// and leave the device indistinguishable from one that never restarted.
func TestSelfHealingRecoversAfterRestart(t *testing.T) {
	sw := switchsim.New("middleblock")
	defer sw.Close()
	info := p4info.New(models.MustLoad("middleblock"))
	shd := NewSelfHealing(sw)
	h := New(info, shd, sw)
	if err := h.PushPipeline(); err != nil {
		t.Fatal(err)
	}
	for _, e := range fixtureEntries("middleblock") {
		resp := shd.Write(p4rt.WriteRequest{Updates: []p4rt.Update{{Type: p4rt.Insert, Entry: p4rt.ToWire(e)}}})
		if !resp.OK() {
			t.Fatalf("installing %s: %s", e, resp.String())
		}
	}
	before, err := shd.Read(p4rt.ReadRequest{})
	if err != nil {
		t.Fatal(err)
	}

	sw.Restart()

	// The next Read hits "no forwarding pipeline config"; the wrapper
	// must heal it transparently and return the reconstructed state.
	after, err := shd.Read(p4rt.ReadRequest{})
	if err != nil {
		t.Fatalf("Read across a restart: %v", err)
	}
	if len(after.Entries) != len(before.Entries) {
		t.Fatalf("recovered %d entries, want %d", len(after.Entries), len(before.Entries))
	}
	if !reflect.DeepEqual(after.Entries, before.Entries) {
		t.Error("recovered state differs from the pre-restart state")
	}
	if shd.Recoveries() != 1 {
		t.Errorf("Recoveries() = %d, want 1", shd.Recoveries())
	}

	// Writes keep working after the heal.
	if resp := shd.Write(p4rt.WriteRequest{}); len(resp.Statuses) != 0 {
		t.Errorf("empty write after recovery: %+v", resp)
	}
}

// TestSelfHealingWithoutConfigSurfacesFailure: a restart before any
// pipeline push cannot be healed — the original failure must surface.
func TestSelfHealingWithoutConfigSurfacesFailure(t *testing.T) {
	sw := switchsim.New("middleblock")
	defer sw.Close()
	shd := NewSelfHealing(sw)
	resp := shd.Write(p4rt.WriteRequest{Updates: []p4rt.Update{{Type: p4rt.Insert}}})
	if len(resp.Statuses) != 1 || resp.Statuses[0].Code != p4rt.FailedPrecondition {
		t.Errorf("write without pipeline = %+v, want the raw FailedPrecondition", resp)
	}
	if shd.Recoveries() != 0 {
		t.Errorf("recovery claimed with nothing to recover from")
	}
}

// tornDevice wraps the simulator and tears chosen Write calls: the
// batch is applied, but the response is replaced with the transport
// failure a lost ACK produces.
type tornDevice struct {
	*switchsim.Switch
	mu     sync.Mutex
	calls  int
	tearAt map[int]bool
	torn   int
}

func (d *tornDevice) Write(req p4rt.WriteRequest) p4rt.WriteResponse {
	resp := d.Switch.Write(req)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.calls++
	if d.tearAt[d.calls] {
		d.torn++
		return p4rt.WriteResponse{Statuses: []p4rt.Status{
			p4rt.Statusf(p4rt.Internal, "transport: %v", errors.New("ACK lost in flight"))}}
	}
	return resp
}

// TestReconcileTornWrite: on a hardened harness (a SelfHealingDevice), a
// torn write is resolved purely by read-back — no retry, no replay
// cache — and the campaign report is byte-identical to the fault-free
// run. Without it, the torn write perturbs the report.
func TestReconcileTornWrite(t *testing.T) {
	info := p4info.New(models.MustLoad("middleblock"))
	run := func(tearAt map[int]bool, reconcile bool) ([]byte, int, error) {
		sw := &tornDevice{Switch: switchsim.New("middleblock"), tearAt: tearAt}
		defer sw.Close()
		var dev p4rt.Device = sw
		if reconcile {
			dev = NewSelfHealing(sw)
		}
		h := New(info, dev, sw)
		if err := h.PushPipeline(); err != nil {
			return nil, 0, err
		}
		rep, err := h.RunControlPlane(smallFuzz)
		if err != nil {
			return nil, sw.torn, err
		}
		data, err := rep.Canon().JSON()
		return data, sw.torn, err
	}

	want, _, err := run(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// Tear two mid-campaign batches (Write call k is batch k-1).
	tears := map[int]bool{4: true, 11: true}
	got, torn, err := run(tears, true)
	if err != nil {
		t.Fatalf("reconciling campaign died: %v", err)
	}
	if torn != len(tears) {
		t.Fatalf("%d writes torn, want %d", torn, len(tears))
	}
	if !bytes.Equal(got, want) {
		t.Errorf("reconciled report is not byte-identical to the fault-free run")
	}

	unrec, torn, err := run(tears, false)
	if err == nil && bytes.Equal(unrec, want) {
		t.Error("unreconciled torn writes left the report byte-identical — the tear is decorative")
	}
	if torn != len(tears) {
		t.Errorf("unreconciled run tore %d writes, want %d", torn, len(tears))
	}

	// A torn WCMP modify that did not land: the switch still holds the
	// old group, which differs from the request only in its member's
	// args. It must reconcile to Unavailable, not OK.
	wcmpT, _ := info.TableByName("wcmp_group_table")
	setNH, _ := info.ActionByName("set_nexthop_id")
	group := func(nexthop byte) p4rt.TableEntry {
		return p4rt.TableEntry{
			TableID: wcmpT.ID,
			Match:   []p4rt.FieldMatch{{FieldID: 1, Exact: &p4rt.ExactMatch{Value: []byte{1}}}},
			Action: p4rt.TableAction{HasActionSet: true, ActionSet: []p4rt.ActionProfileAction{{
				Action: p4rt.Action{ActionID: setNH.ID, Params: []p4rt.ActionParam{{ParamID: 1, Value: []byte{nexthop}}}},
				Weight: 1,
			}}},
		}
	}
	oldGroup := group(1)
	installed, err := p4rt.FromWire(info, &oldGroup)
	if err != nil {
		t.Fatal(err)
	}
	prev := pdpi.NewStore()
	if err := prev.Insert(installed); err != nil {
		t.Fatal(err)
	}
	modify := p4rt.WriteRequest{Updates: []p4rt.Update{{Type: p4rt.Modify, Entry: group(2)}}}
	for _, c := range []struct {
		observed p4rt.TableEntry
		want     p4rt.Code
	}{{group(1), p4rt.Unavailable}, {group(2), p4rt.OK}} {
		resp := reconcileWriteResponse(info, prev, p4rt.ReadResponse{Entries: []p4rt.TableEntry{c.observed}}, modify)
		if got := resp.Statuses[0].Code; got != c.want {
			t.Errorf("WCMP modify to nexthop 2, switch holds nexthop %d: reconciled %s, want %s",
				c.observed.Action.ActionSet[0].Action.Params[0].Value[0], got, c.want)
		}
	}
}

// TestIsTransportFailureShape: only the exact single-status transport
// shape triggers reconciliation — device-level Internal errors must not.
func TestIsTransportFailureShape(t *testing.T) {
	cases := []struct {
		resp p4rt.WriteResponse
		want bool
	}{
		{p4rt.WriteResponse{Statuses: []p4rt.Status{p4rt.Statusf(p4rt.Internal, "transport: RPC timeout")}}, true},
		{p4rt.WriteResponse{Statuses: []p4rt.Status{p4rt.Statusf(p4rt.Internal, "constraint engine: boom")}}, false},
		{p4rt.WriteResponse{Statuses: []p4rt.Status{p4rt.Statusf(p4rt.Unavailable, "transport: down")}}, false},
		{p4rt.WriteResponse{Statuses: []p4rt.Status{
			p4rt.Statusf(p4rt.Internal, "transport: a"), p4rt.Statusf(p4rt.Internal, "transport: b")}}, false},
		{p4rt.WriteResponse{}, false},
	}
	for i, c := range cases {
		if got := isTransportFailure(c.resp); got != c.want {
			t.Errorf("case %d: isTransportFailure(%+v) = %v, want %v", i, c.resp, got, c.want)
		}
	}
}

// busyDevice wraps the simulator and answers its first one-update Write
// with the switch's own UNAVAILABLE, without applying the update.
type busyDevice struct {
	*switchsim.Switch
	answered bool
}

func (d *busyDevice) Write(req p4rt.WriteRequest) p4rt.WriteResponse {
	if d.answered || len(req.Updates) != 1 {
		return d.Switch.Write(req)
	}
	d.answered = true
	return p4rt.WriteResponse{Statuses: []p4rt.Status{p4rt.Statusf(p4rt.Unavailable, "switch busy")}}
}

// TestHardenedJudgesSwitchUnavailable: a hardened harness exempts only
// the status reconciliation gives an update it cannot resolve. A switch
// that answers a valid insert with its own UNAVAILABLE is reported.
func TestHardenedJudgesSwitchUnavailable(t *testing.T) {
	info := p4info.New(models.MustLoad("middleblock"))
	sw := &busyDevice{Switch: switchsim.New("middleblock")}
	defer sw.Close()
	h := New(info, NewSelfHealing(sw), sw)
	if err := h.PushPipeline(); err != nil {
		t.Fatal(err)
	}
	rep, err := h.RunControlPlane(fuzzer.Options{
		Seed: 1, NumRequests: 1, UpdatesPerRequest: 1,
		MutateFraction: fuzzer.Disabled, ConstraintAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sw.answered || rep.Updates != 1 || rep.MustAccept != 1 {
		t.Fatalf("answered=%v updates=%d must-accept=%d, want one must-accept update answered UNAVAILABLE",
			sw.answered, rep.Updates, rep.MustAccept)
	}
	if len(rep.Incidents) != 1 || rep.Incidents[0].Kind != "rejected-valid" {
		t.Fatalf("incidents = %v, want one rejected-valid", rep.Incidents)
	}
}

// TestParallelQuarantine: with Quarantine on, a shard whose stack
// cannot be built is sidelined with its derived seed and the campaign
// completes over the healthy shards; with it off the same failure kills
// the run.
func TestParallelQuarantine(t *testing.T) {
	info := p4info.New(models.MustLoad("middleblock"))
	brokenFactory := func(shard int) (p4rt.Device, func(), error) {
		if shard == 1 {
			return nil, nil, fmt.Errorf("shard hardware on fire")
		}
		sw := switchsim.New("middleblock")
		return sw, func() { sw.Close() }, nil
	}

	opts := ParallelOptions{
		Shards: 4, Workers: 2, Fuzz: parallelFuzz,
		Factory: brokenFactory, Quarantine: true,
	}
	rep, err := RunParallelCampaign(info, opts)
	if err != nil {
		t.Fatalf("quarantined campaign failed outright: %v", err)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("Quarantined = %+v, want exactly shard 1", rep.Quarantined)
	}
	q := rep.Quarantined[0]
	if q.Shard != 1 || q.Seed != fuzzer.DeriveSeed(parallelFuzz.Seed, 1) ||
		!strings.Contains(q.Reason, "on fire") {
		t.Errorf("quarantine record = %+v", q)
	}
	if len(rep.PerShard) != 4 {
		t.Errorf("PerShard has %d entries, want all 4 shards accounted for", len(rep.PerShard))
	}
	if rep.Batches == 0 || rep.Updates == 0 {
		t.Error("healthy shards contributed nothing to the merged report")
	}
	data, err := rep.Canon().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"quarantined"`)) {
		t.Error("canonical report of a degraded run does not record the quarantine")
	}

	// Same failure without Quarantine: the campaign errors.
	opts.Quarantine = false
	if _, err := RunParallelCampaign(info, opts); err == nil ||
		!strings.Contains(err.Error(), "on fire") {
		t.Errorf("unquarantined campaign returned %v, want the shard error", err)
	}
}

// TestCleanRunOmitsQuarantineField: reports from clean runs must stay
// byte-identical to pre-quarantine reports — the field is omitempty.
func TestCleanRunOmitsQuarantineField(t *testing.T) {
	info := p4info.New(models.MustLoad("middleblock"))
	rep, err := RunParallelCampaign(info, ParallelOptions{
		Shards: 2, Fuzz: parallelFuzz, Factory: simFactory("middleblock"), Quarantine: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.Canon().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("quarantined")) {
		t.Error(`clean run's canonical JSON contains "quarantined"`)
	}
}
