// The survival bijection matrix: the tentpole contract of the chaos
// package. For EVERY registered chaos mode there is a recipe, and for
// every recipe a registered mode (the bijection), and each recipe must
// prove three things:
//
//  1. Survival: a hardened stack (retrying client + self-healing device
//     + reconciling harness) runs the campaign to completion under the
//     injected fault and produces a canonical report BYTE-IDENTICAL to
//     the same campaign on a fault-free stack. Not "no incidents" —
//     bit-for-bit the same verdict counts, coverage and trajectory.
//  2. Lethality: the same fault against an unhardened stack does NOT
//     produce that byte-identical clean report (it errors or the report
//     is perturbed) — otherwise the fault is decorative and the matrix
//     row proves nothing.
//  3. Reproducibility: the run is a pure function of (seed, schedule):
//     repeating it yields the same report bytes and the same injected
//     fault events.
package chaos_test

import (
	"bytes"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"switchv/internal/chaos"
	"switchv/internal/fuzzer"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
	"switchv/internal/switchv"
	"switchv/models"
)

// survivalFuzz is the fixed campaign every matrix cell runs. RPC index
// accounting for the recipes: index 0 is the pipeline push, then each
// batch costs two indices (write, read) — so odd indices 1,3,5,... are
// Writes and even indices 2,4,6,... are read-backs.
var survivalFuzz = fuzzer.Options{Seed: 1, NumRequests: 20, UpdatesPerRequest: 10}

// recipes is the matrix: one chaos schedule per mode. Restart fires a
// little later than the rest so there is established table state whose
// loss (and replay) is actually exercised.
var recipes = map[chaos.Mode]string{
	chaos.ModeReset:   "reset:@5",
	chaos.ModeLatency: "latency:@5",
	chaos.ModeDrop:    "drop:@5",
	chaos.ModeDup:     "dup:@5",
	chaos.ModeTorn:    "torn:@5",
	chaos.ModeRestart: "restart:@7",
}

const survivalRole = "middleblock"

// TestSurvivalMatrixIsBijective: every registered mode has a recipe and
// every recipe names a registered mode. A new mode added to the package
// without a matrix row fails here, not silently.
func TestSurvivalMatrixIsBijective(t *testing.T) {
	for _, m := range chaos.AllModes() {
		if _, ok := recipes[m]; !ok {
			t.Errorf("mode %q has no survival recipe", m)
		}
	}
	for m := range recipes {
		if _, ok := chaos.Meta(m); !ok {
			t.Errorf("recipe for %q does not correspond to a registered mode", m)
		}
	}
}

// chaosCampaign runs the fixed campaign through a chaos wire and
// returns its canonical report bytes plus the injected events.
// hardened=false swaps in a bare client with no retry, no redial, no
// self-healing and no reconciliation (only a deadline, so tests
// terminate instead of hanging on withheld responses).
func chaosCampaign(t *testing.T, sched *chaos.Schedule, hardened bool) (json []byte, events []chaos.Event, recoveries int, err error) {
	t.Helper()
	sw := switchsim.New(survivalRole)
	srv := p4rt.NewServer(sw, nil)
	wire := chaos.NewWire(sched, func() (net.Conn, error) {
		c1, c2 := net.Pipe()
		if serr := srv.ServeConn(c2); serr != nil {
			return nil, serr
		}
		return c1, nil
	})
	wire.SetRestart(func() {
		sw.Restart()        // pipeline + table state lost
		srv.ResetSessions() // replay cache lost: full process reboot
	})
	conn, derr := wire.Dial()
	if derr != nil {
		t.Fatal(derr)
	}
	cli := p4rt.NewClient(conn)
	cli.SetTimeout(100 * time.Millisecond)
	var dev p4rt.Device = cli
	var shd *switchv.SelfHealingDevice
	if hardened {
		cli.SetRedial(wire.Dial)
		cli.SetRetry(p4rt.Backoff{Initial: time.Millisecond, Max: 4 * time.Millisecond,
			Attempts: 6, Sleep: func(time.Duration) {}})
		shd = switchv.NewSelfHealing(cli)
		dev = shd
	}
	defer func() {
		cli.Close()
		wire.Close()
		srv.Close()
		sw.Close()
	}()

	info := p4info.New(models.MustLoad(survivalRole))
	h := switchv.New(info, dev, nil)
	if perr := h.PushPipeline(); perr != nil {
		return nil, wire.Events(), 0, perr
	}
	rep, rerr := h.RunControlPlane(survivalFuzz)
	if rerr != nil {
		return nil, wire.Events(), 0, rerr
	}
	data, jerr := rep.Canon().JSON()
	if jerr != nil {
		t.Fatal(jerr)
	}
	if shd != nil {
		recoveries = shd.Recoveries()
	}
	return data, wire.Events(), recoveries, nil
}

// baseline memoizes the fault-free reference report: the same campaign
// on a direct in-process switch, no wire, no hardening.
var baseline struct {
	once sync.Once
	json []byte
}

func baselineJSON(t *testing.T) []byte {
	t.Helper()
	baseline.once.Do(func() {
		sw := switchsim.New(survivalRole)
		defer sw.Close()
		info := p4info.New(models.MustLoad(survivalRole))
		h := switchv.New(info, sw, sw)
		if err := h.PushPipeline(); err != nil {
			t.Fatal(err)
		}
		rep, err := h.RunControlPlane(survivalFuzz)
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.Canon().JSON()
		if err != nil {
			t.Fatal(err)
		}
		baseline.json = data
	})
	if baseline.json == nil {
		t.Fatal("baseline campaign failed in an earlier subtest")
	}
	return baseline.json
}

func hasMode(events []chaos.Event, m chaos.Mode) bool {
	for _, e := range events {
		if e.Mode == m {
			return true
		}
	}
	return false
}

// TestSurvivalMatrix is the matrix itself: per mode, the hardened stack
// survives with a byte-identical report while the unhardened stack does
// not, and the fault provably fired on both.
func TestSurvivalMatrix(t *testing.T) {
	want := baselineJSON(t)
	for _, mode := range chaos.AllModes() {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			sched, err := chaos.Parse(recipes[mode], 1)
			if err != nil {
				t.Fatal(err)
			}

			got, events, recoveries, err := chaosCampaign(t, sched, true)
			if err != nil {
				t.Fatalf("hardened campaign died under %s: %v", mode, err)
			}
			if !hasMode(events, mode) {
				t.Fatalf("schedule %q never fired %s (events: %v) — nothing was survived",
					recipes[mode], mode, events)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("hardened report under %s is not byte-identical to the fault-free run\nfaulted:    %d bytes\nfault-free: %d bytes",
					mode, len(got), len(want))
			}
			if mode == chaos.ModeRestart && recoveries == 0 {
				t.Error("restart survived without any self-healing recovery — the restart cannot have happened")
			}

			unJSON, unEvents, _, unErr := chaosCampaign(t, sched, false)
			if !hasMode(unEvents, mode) {
				t.Errorf("unhardened run never saw %s fire", mode)
			}
			if unErr == nil && bytes.Equal(unJSON, want) {
				t.Errorf("unhardened stack produced a clean byte-identical report under %s — the fault is decorative", mode)
			}
		})
	}
}

// TestSurvivalReproducible: each matrix cell is a pure function of
// (seed, schedule) — same report bytes, same injected events, run to
// run.
func TestSurvivalReproducible(t *testing.T) {
	for _, mode := range chaos.AllModes() {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			sched, err := chaos.Parse(recipes[mode], 1)
			if err != nil {
				t.Fatal(err)
			}
			json1, ev1, _, err1 := chaosCampaign(t, sched, true)
			json2, ev2, _, err2 := chaosCampaign(t, sched, true)
			if err1 != nil || err2 != nil {
				t.Fatalf("campaigns errored: %v / %v", err1, err2)
			}
			if !bytes.Equal(json1, json2) {
				t.Error("two identical chaos campaigns produced different report bytes")
			}
			if !reflect.DeepEqual(ev1, ev2) {
				t.Errorf("injected events differ between identical runs:\n%v\n%v", ev1, ev2)
			}
		})
	}
}

// TestSurvivalPeriodicSchedule: the /P grammar end to end — a mixed
// periodic schedule fires multiple faults across the campaign, and the
// hardened stack still reproduces the fault-free bytes.
func TestSurvivalPeriodicSchedule(t *testing.T) {
	want := baselineJSON(t)
	sched, err := chaos.Parse("drop:/9,dup:/11", 1)
	if err != nil {
		t.Fatal(err)
	}
	got, events, _, err := chaosCampaign(t, sched, true)
	if err != nil {
		t.Fatalf("hardened campaign died under periodic chaos: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("periodic schedule fired nothing over the whole campaign")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("hardened report under periodic chaos not byte-identical (%d injected faults)", len(events))
	}
	got2, events2, _, err := chaosCampaign(t, sched, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, got2) || !reflect.DeepEqual(events, events2) {
		t.Error("periodic chaos campaign not reproducible")
	}
	t.Logf("survived %d periodic faults: %v", len(events), events)
}
