// Package switchv is the SwitchV harness (§2 "Design"): it drives
// p4-fuzzer against a switch's control plane API and p4-symbolic against
// its data plane, judges the observed behavior with the oracle and the
// reference simulator, and produces incident reports for humans to
// triage.
package switchv

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"switchv/internal/bmv2"
	"switchv/internal/coverage"
	"switchv/internal/fuzzer"
	"switchv/internal/oracle"
	"switchv/internal/p4/check"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4rt"
	"switchv/internal/packet"
	"switchv/internal/symbolic"
)

// DataPlane is the test harness's access to the switch's ports (a traffic
// generator wired to the switch under test). Both the in-process switch
// simulator and the TCP client implement it.
type DataPlane = p4rt.DataPlaneDevice

// Incident is one detected divergence between the switch and the model.
type Incident struct {
	// Tool is "p4-fuzzer" or "p4-symbolic".
	Tool string `json:"tool"`
	// Kind classifies the divergence.
	Kind string `json:"kind"`
	// Detail is the human-readable log (§2: "a human must inspect this
	// log to investigate the root cause").
	Detail string `json:"detail"`
}

func (i Incident) String() string {
	return fmt.Sprintf("[%s] %s: %s", i.Tool, i.Kind, i.Detail)
}

// PrecheckMode selects how the static preflight (internal/p4/check)
// gates a campaign.
type PrecheckMode int

const (
	// PrecheckOn — the default — refuses to launch on error-severity
	// findings and prunes work the analyzer proved pointless
	// (unreachable-table goals, dead coverage points).
	PrecheckOn PrecheckMode = iota
	// PrecheckWarn analyzes and prunes but never refuses; findings are
	// the caller's to surface.
	PrecheckWarn
	// PrecheckOff skips the analyzer entirely: no gate, no pruning, no
	// coverage exclusion.
	PrecheckOff
)

// Harness validates one switch against one model.
type Harness struct {
	Info *p4info.Info
	Dev  p4rt.Device
	DP   DataPlane
	// Precheck selects the preflight gate mode. The zero value enforces
	// the gate: a defective model silently corrupts every downstream
	// verdict, so opting out is the explicit choice.
	Precheck PrecheckMode
	// Reconcile hardens control-plane campaigns against torn writes: a
	// write whose ACK was lost in transit (transport-failure response)
	// is resolved by read-back — per-update statuses are reconstructed
	// from the observed state, with genuinely unknowable outcomes marked
	// Unavailable and exempted from oracle judgement. Without it, a torn
	// write poisons the campaign with false incidents or kills it.
	Reconcile bool
}

// New builds a harness.
func New(info *p4info.Info, dev p4rt.Device, dp DataPlane) *Harness {
	return &Harness{Info: info, Dev: dev, DP: dp}
}

// PrecheckReport returns the memoized preflight report for the model,
// or nil when the preflight is off.
func (h *Harness) PrecheckReport() *check.Report {
	if h.Precheck == PrecheckOff {
		return nil
	}
	return check.Cached(h.Info.Program())
}

// precheckGate runs the preflight and refuses the campaign on
// error-severity findings (PrecheckOn only).
func (h *Harness) precheckGate(tool string) (*check.Report, error) {
	rep := h.PrecheckReport()
	if rep == nil {
		return nil, nil
	}
	if h.Precheck == PrecheckOn && rep.HasErrors() {
		return rep, fmt.Errorf("switchv: %s: model failed preflight with %d error finding(s); fix the model or launch with precheck=warn to override:\n%s",
			tool, rep.Errors(), rep.Text())
	}
	return rep, nil
}

// PushPipeline pushes the model's P4Info to the switch.
func (h *Harness) PushPipeline() error {
	return h.Dev.SetForwardingPipelineConfig(p4rt.ForwardingPipelineConfig{
		P4Info: h.Info.Text(),
		Cookie: 1,
	})
}

// BatchCoverage is one sample of a campaign's coverage trajectory, taken
// after each batch.
type BatchCoverage struct {
	// Points is the number of distinct coverage points exercised so far.
	Points int64
	// Tables is the number of tables with at least one accepted update.
	Tables int
}

// ControlPlaneReport summarizes a fuzzing campaign (§4).
type ControlPlaneReport struct {
	Batches     int
	Updates     int
	MustAccept  int
	MustReject  int
	MayReject   int
	Incidents   []Incident
	Elapsed     time.Duration
	PerMutation map[string]int
	// Coverage is the final coverage snapshot of the campaign.
	Coverage *coverage.Snapshot
	// Trajectory holds one BatchCoverage sample per judged batch of a
	// lockstep campaign; a batch whose read-back failed takes none. An
	// overlapped shard (see runControlPlane) leaves it empty.
	Trajectory []BatchCoverage
	// PlateauStopped reports that the campaign ended early because
	// Options.PlateauBatches consecutive batches added no new coverage.
	PlateauStopped bool
}

// EntriesPerSecond is the fuzzer throughput metric of Table 3.
func (r *ControlPlaneReport) EntriesPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Updates) / r.Elapsed.Seconds()
}

// CanonicalControlPlaneReport is the deterministic projection of a
// single-stack campaign: every field is a pure function of (model,
// seed, options); Elapsed is excluded. The chaos survival matrix states
// its byte-identity contract over it — a campaign run under injected
// faults on a hardened stack must render the same JSON as the same
// campaign with no faults at all.
type CanonicalControlPlaneReport struct {
	Batches        int                `json:"batches"`
	Updates        int                `json:"updates"`
	MustAccept     int                `json:"must_accept"`
	MustReject     int                `json:"must_reject"`
	MayReject      int                `json:"may_reject"`
	Incidents      []Incident         `json:"incidents"`
	PerMutation    map[string]int     `json:"per_mutation"`
	Coverage       *coverage.Snapshot `json:"coverage"`
	Trajectory     []BatchCoverage    `json:"trajectory"`
	PlateauStopped bool               `json:"plateau_stopped"`
}

// Canon extracts the deterministic projection of the report.
func (r *ControlPlaneReport) Canon() *CanonicalControlPlaneReport {
	return &CanonicalControlPlaneReport{
		Batches:        r.Batches,
		Updates:        r.Updates,
		MustAccept:     r.MustAccept,
		MustReject:     r.MustReject,
		MayReject:      r.MayReject,
		Incidents:      r.Incidents,
		PerMutation:    r.PerMutation,
		Coverage:       r.Coverage,
		Trajectory:     r.Trajectory,
		PlateauStopped: r.PlateauStopped,
	}
}

// JSON renders the canonical report; encoding/json sorts map keys, so
// equal reports render byte-equal.
func (r *CanonicalControlPlaneReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RunControlPlane fuzzes the switch's control plane API: batches of valid
// and mutated updates, each followed by a full read-back that the oracle
// judges (§4.3, §4.4).
func (h *Harness) RunControlPlane(opts fuzzer.Options) (*ControlPlaneReport, error) {
	return h.runControlPlane(opts, 1)
}

// pipelineDepth is how many batches runShard lets a shard's switch side
// run ahead of its oracle side.
const pipelineDepth = 4

// switchBatch is one batch's switch side, handed to the oracle side.
type switchBatch struct {
	batch     int
	covBefore int64 // coverage before the batch was generated
	req       p4rt.WriteRequest
	meta      []fuzzer.GeneratedUpdate
	resp      p4rt.WriteResponse
	observed  p4rt.ReadResponse
	readErr   error
}

// runControlPlane is the campaign loop. Each batch has a switch side
// (generate, write, read back, reconcile a torn write, update the
// fuzzer's reference pool) and an oracle side (judge the batch, count
// verdicts, record incidents, sample the trajectory, check the stops).
//
// With depth 1 the two sides run in lockstep. With a larger depth the
// switch side runs on its own goroutine up to depth batches ahead, so
// the switch never waits for verdict bookkeeping. Results are the same
// either way — the oracle side sees the batches in order and only it
// touches the oracle — except that the overlapped schedule samples no
// Trajectory, since a mid-pipeline coverage reading would depend on
// how far the switch side has run. Modes that feed the oracle side back
// into the switch side need lockstep: plateau and incident-count stops,
// coverage-guided picks, and torn-write reconciliation, which reads the
// oracle's pre-batch state.
func (h *Harness) runControlPlane(opts fuzzer.Options, depth int) (*ControlPlaneReport, error) {
	crep, err := h.precheckGate("p4-fuzzer")
	if err != nil {
		return nil, err
	}
	if opts.Coverage == nil {
		var dead map[string]bool
		if crep != nil {
			dead = crep.UnreachableSet()
		}
		opts.Coverage = coverage.NewMapExcluding(h.Info, dead)
	}
	if opts.PlateauBatches > 0 || opts.StopAfterIncidents > 0 || opts.CoverageGuided || h.Reconcile {
		depth = 1
	}
	cov := opts.Coverage
	f := fuzzer.New(h.Info, opts)
	orc := oracle.New(h.Info)
	orc.SetCoverage(cov)
	orc.AllowUnavailable = h.Reconcile
	rep := &ControlPlaneReport{}
	start := time.Now()
	n := opts.NumRequests
	if n == 0 {
		n = 1000
	}

	// produce runs the switch side of every batch, handing each to emit
	// until emit asks to stop.
	produce := func(emit func(switchBatch) bool) error {
		for batch := 0; batch < n; batch++ {
			sb := switchBatch{batch: batch, covBefore: cov.Covered()}
			var err error
			if sb.req, sb.meta, err = f.NextBatch(); err != nil {
				return err
			}
			sb.resp = h.Dev.Write(sb.req)
			sb.observed, sb.readErr = h.Dev.Read(p4rt.ReadRequest{})
			if sb.readErr == nil {
				if h.Reconcile && isTransportFailure(sb.resp) {
					// Torn write: the ACK died in transit, so resolve what
					// actually landed from the read-back before judging.
					sb.resp = reconcileWriteResponse(h.Info, orc.State(), sb.observed, sb.req)
				}
				// Keep the fuzzer's reference pool in sync with what the
				// switch accepted, before the next batch is generated.
				for i, st := range sb.resp.Statuses {
					if i < len(sb.req.Updates) && st.Code == p4rt.OK {
						f.NoteAccepted(sb.req.Updates[i])
					}
				}
			}
			if !emit(sb) {
				return nil
			}
		}
		return nil
	}

	// judge runs the oracle side of one batch and reports whether the
	// campaign goes on.
	plateauRun := 0
	judge := func(sb switchBatch) bool {
		rep.Batches++
		rep.Updates += len(sb.req.Updates)
		if sb.readErr != nil {
			rep.Incidents = append(rep.Incidents, Incident{
				Tool: "p4-fuzzer", Kind: "read-failed",
				Detail: fmt.Sprintf("reading back after batch %d: %v", sb.batch, sb.readErr),
			})
			return true
		}
		verdicts, violations := orc.CheckBatch(sb.req, sb.resp, sb.observed)
		for i, v := range verdicts {
			switch v {
			case oracle.MustAccept:
				rep.MustAccept++
			case oracle.MustReject:
				rep.MustReject++
			case oracle.MayReject:
				rep.MayReject++
			}
			// Per-mutation-class verdict-outcome accounting: which oracle
			// verdict and switch decision each mutation class has reached.
			if i < len(sb.meta) && i < len(sb.resp.Statuses) {
				cov.NoteMutationOutcome(sb.meta[i].Mutation, v.String(),
					sb.resp.Statuses[i].Code == p4rt.OK)
			}
		}
		for _, viol := range violations {
			detail := viol.String()
			if viol.UpdateIndex >= 0 && viol.UpdateIndex < len(sb.meta) {
				m := sb.meta[viol.UpdateIndex]
				detail += fmt.Sprintf(" (update: %s %v", m.Update.Type, m.Update.Entry.TableID)
				if m.Mutation != "" {
					detail += ", mutation: " + m.Mutation
				}
				detail += ")"
			}
			rep.Incidents = append(rep.Incidents, Incident{Tool: "p4-fuzzer", Kind: viol.Kind, Detail: detail})
		}
		if depth > 1 {
			return true
		}
		rep.Trajectory = append(rep.Trajectory, BatchCoverage{
			Points: cov.Covered(),
			Tables: cov.TablesAccepted(),
		})
		if opts.StopAfterIncidents > 0 && len(rep.Incidents) >= opts.StopAfterIncidents {
			return false
		}
		// Coverage-plateau early stop: a batch that exercises no new point
		// extends the plateau; PlateauBatches of them in a row end the
		// campaign (nothing left that this schedule is going to reach).
		if cov.Covered() == sb.covBefore {
			plateauRun++
			if opts.PlateauBatches > 0 && plateauRun >= opts.PlateauBatches {
				rep.PlateauStopped = true
				return false
			}
		} else {
			plateauRun = 0
		}
		return true
	}

	if depth > 1 {
		// The buffer plus the batch the switch side holds while blocked
		// on a send let it run at most depth batches ahead.
		work := make(chan switchBatch, depth-1)
		go func() {
			defer close(work)
			err = produce(func(sb switchBatch) bool { work <- sb; return true })
		}()
		for sb := range work {
			judge(sb)
		}
	} else {
		err = produce(judge)
	}
	rep.Elapsed = time.Since(start)
	rep.PerMutation = f.PerMutation
	rep.Coverage = cov.Snapshot()
	return rep, err
}

// DataPlaneReport summarizes a symbolic data-plane campaign (§5).
type DataPlaneReport struct {
	Entries      int
	Goals        int
	Covered      int
	Unreachable  int
	Packets      int
	Incidents    []Incident
	CacheHit     bool
	GenElapsed   time.Duration // packet generation (SMT) time
	TestElapsed  time.Duration // switch+simulator execution and compare
	SolverReport symbolic.Report
	// Coverage is the final snapshot of Options.Coverage (nil when the
	// campaign ran without a map).
	Coverage *coverage.Snapshot
}

// DataPlaneOptions configures a data-plane campaign.
type DataPlaneOptions struct {
	Coverage symbolic.CoverageMode
	// Cache, when non-nil, serves per-goal generation outcomes (§6.3).
	Cache *symbolic.Cache
	// Churn re-applies every installed entry with MODIFY before testing,
	// exercising update paths (the class of WCMP-update bugs).
	Churn bool
	// CoverageMap, when non-nil, is seeded with the symbolic trace map's
	// goal list and credited with per-table/per-entry hits harvested from
	// the reference simulator's execution traces.
	CoverageMap *coverage.Map
	// Workers is the number of concurrent workers for packet generation
	// and simulation (default 1). The campaign result is identical for
	// any worker count; only wall-clock time changes.
	Workers int
	// Shards is the generator's logical goal-shard count (default
	// symbolic.DefaultGoalShards). Results depend on it — it is a
	// campaign parameter, not a concurrency knob.
	Shards int
}

// maxBehaviors bounds the simulator behavior-set loop.
const maxBehaviors = 32

// RunDataPlane installs the given entries on the switch, generates test
// packets with p4-symbolic, runs them against both the switch and the
// reference simulator, and flags every switch behavior that is not in the
// simulator's set of valid behaviors.
func (h *Harness) RunDataPlane(entries []*pdpi.Entry, opts DataPlaneOptions) (*DataPlaneReport, error) {
	crep, err := h.precheckGate("p4-symbolic")
	if err != nil {
		return nil, err
	}
	var dead map[string]bool
	if crep != nil {
		dead = crep.UnreachableSet()
	}
	rep := &DataPlaneReport{Entries: len(entries)}

	// Reconcile the switch to an empty state first, as a controller would
	// before replaying a snapshot: read everything back and delete it in
	// reverse dependency order so references never dangle mid-wipe. A
	// switch whose state cannot even be read or cleared is itself a
	// finding (e.g. the P4Info push silently failed).
	if err := h.wipe(); err != nil {
		rep.Incidents = append(rep.Incidents, Incident{
			Tool: "p4-symbolic", Kind: "state-unavailable",
			Detail: fmt.Sprintf("cannot prepare the switch for data-plane testing: %v", err),
		})
		return rep, nil
	}

	// Install the forwarding state. Install failures of valid entries are
	// control-plane bugs surfaced during data-plane setup — the paper's
	// p4-symbolic found several this way.
	store := pdpi.NewStore()
	for _, e := range entries {
		resp := h.Dev.Write(p4rt.WriteRequest{Updates: []p4rt.Update{{Type: p4rt.Insert, Entry: p4rt.ToWire(e)}}})
		if !resp.OK() {
			rep.Incidents = append(rep.Incidents, Incident{
				Tool: "p4-symbolic", Kind: "install-rejected",
				Detail: fmt.Sprintf("switch rejected valid entry %s: %s", e, resp.String()),
			})
			continue
		}
		if err := store.Insert(e); err != nil {
			return rep, fmt.Errorf("switchv: duplicate fixture entry %s", e)
		}
	}

	if opts.Churn {
		for _, e := range store.All(h.Info.Program()) {
			if e.Table.ConstDefault && len(e.Matches) == 0 {
				continue
			}
			resp := h.Dev.Write(p4rt.WriteRequest{Updates: []p4rt.Update{{Type: p4rt.Modify, Entry: p4rt.ToWire(e)}}})
			if !resp.OK() {
				rep.Incidents = append(rep.Incidents, Incident{
					Tool: "p4-symbolic", Kind: "modify-rejected",
					Detail: fmt.Sprintf("switch rejected no-op modify of %s: %s", e, resp.String()),
				})
			}
		}
	}

	// Generate test packets: structural goals of the coverage mode plus
	// the standing "test engineer" assertions (§5 "Coverage
	// Constraints"), via the parallel, solve-avoiding generator.
	prog := h.Info.Program()
	genStart := time.Now()
	gen, err := symbolic.NewGenerator(prog, store, symbolic.Options{}, symbolic.GenOptions{
		Mode:              opts.Coverage,
		Enriched:          true,
		Cache:             opts.Cache,
		Workers:           opts.Workers,
		Shards:            opts.Shards,
		UnreachableTables: dead,
	})
	if err != nil {
		return rep, err
	}
	// The goal universe is the campaign's coverage denominator: every
	// goal registers at zero so the map knows what was never reached —
	// except goals the preflight proved unreachable, which would deflate
	// every percentage for work no packet can ever do.
	if opts.CoverageMap != nil {
		for _, key := range gen.GoalKeys() {
			if t := symbolic.GoalTable(key); t != "" && dead[t] {
				continue
			}
			opts.CoverageMap.Register(coverage.KeyGoal(key))
		}
	}
	packets, srep, err := gen.Run()
	if err != nil {
		return rep, err
	}
	rep.SolverReport = srep
	rep.Goals = srep.Goals
	rep.Covered = srep.Covered
	rep.Unreachable = srep.Unreachable
	rep.CacheHit = srep.Goals > 0 && srep.Cached == srep.Goals
	rep.GenElapsed = time.Since(genStart)

	// Packet-IO checks (§6.1's packet-out bug class): direct packet-outs
	// must not echo back as packet-ins, and a submit-to-ingress packet
	// that the model punts must come back on the stream.
	var punt *symbolic.TestPacket
	for i := range packets {
		if packets[i].GoalKey == "enriched:punt" {
			punt = &packets[i]
			break
		}
	}
	rep.Incidents = append(rep.Incidents, h.checkPacketIO(punt)...)

	// Differential execution. Background traffic rides along: frames a
	// production network carries regardless of the installed entries
	// (LLDP, ARP, IPv6 ND). Daemon-level bugs (e.g. an LLDP agent
	// punting frames the model says to drop) only show up under this
	// mix.
	testStart := time.Now()
	all := packets
	for _, bg := range backgroundFrames() {
		all = append(all, symbolic.TestPacket{GoalKey: "background:" + bg.name, Port: 1, Data: bg.frame})
	}
	rep.Packets = len(all)

	// Phase 1 (serial): inject every packet into the switch in packet
	// order — the switch is one stateful device and injection order is
	// part of the campaign's definition.
	injected := make([]p4rt.InjectResult, len(all))
	incidents := make([]*Incident, len(all))
	for i := range all {
		pkt := &all[i]
		if opts.CoverageMap != nil && i < len(packets) {
			opts.CoverageMap.NoteGoal(pkt.GoalKey)
		}
		injected[i], incidents[i] = h.injectPacket(pkt)
	}

	// Phase 2 (parallel): simulate each packet's behavior set and
	// compare against the observed switch behavior. Each worker builds
	// one engine and resets it between packets — Reset restores the
	// freshly-constructed state, so per-packet verdicts stay independent
	// of scheduling and the worker count changes wall-clock time only.
	// Incidents merge in packet order below.
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim, simErr := newEngine(prog, store)
			for i := range jobs {
				if simErr != nil {
					incidents[i] = &Incident{Tool: "p4-symbolic", Kind: "simulator-error",
						Detail: fmt.Sprintf("goal %s: building simulator: %v", all[i].GoalKey, simErr)}
					continue
				}
				sim.Reset()
				incidents[i] = h.comparePacket(sim, &all[i], injected[i], opts.CoverageMap)
			}
		}()
	}
	for i := range all {
		if incidents[i] == nil {
			jobs <- i
		}
	}
	close(jobs)
	wg.Wait()
	for _, inc := range incidents {
		if inc != nil {
			rep.Incidents = append(rep.Incidents, *inc)
		}
	}
	rep.TestElapsed = time.Since(testStart)

	// Teardown: remove everything we installed, as the nightly run's
	// cleanup would. Deletion failures are control-plane bugs (e.g. the
	// default-route deletion bug).
	if err := h.wipe(); err != nil {
		rep.Incidents = append(rep.Incidents, Incident{
			Tool: "p4-symbolic", Kind: "teardown-rejected",
			Detail: fmt.Sprintf("cleaning up installed entries: %v", err),
		})
	}
	if opts.CoverageMap != nil {
		rep.Coverage = opts.CoverageMap.Snapshot()
	}
	return rep, nil
}

// backgroundFrames returns the standing traffic mix injected alongside
// generated test packets.
func backgroundFrames() []struct {
	name  string
	frame []byte
} {
	mk := func(layers ...packet.SerializableLayer) []byte {
		data, err := packet.Serialize(packet.SerializeOptions{FixLengths: true, ComputeChecksums: true}, layers...)
		if err != nil {
			panic(err)
		}
		return data
	}
	lldp := mk(
		&packet.Ethernet{DstMAC: packet.MAC{0x01, 0x80, 0xc2, 0, 0, 0x0e}, SrcMAC: packet.MAC{2, 0, 0, 0, 0, 9}, EtherType: 0x88cc},
		packet.Raw([]byte{0x02, 0x07, 0x04, 0, 0, 0, 0, 0, 0}))
	arp := mk(
		&packet.Ethernet{DstMAC: packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, SrcMAC: packet.MAC{2, 0, 0, 0, 0, 9}, EtherType: packet.EtherTypeARP},
		&packet.ARP{Operation: 1, SenderIP: packet.IPv4Addr{192, 0, 2, 10}, TargetIP: packet.IPv4Addr{192, 0, 2, 1}})
	src6 := packet.MustParseIPv6("fe80::9")
	dst6 := packet.MustParseIPv6("ff02::1")
	icmp := &packet.ICMPv6{Type: packet.ICMPv6TypeNeighborSolicit}
	icmp.SetNetworkLayerForChecksum(src6[:], dst6[:])
	nd := mk(
		&packet.Ethernet{DstMAC: packet.MAC{0x33, 0x33, 0, 0, 0, 1}, SrcMAC: packet.MAC{2, 0, 0, 0, 0, 9}, EtherType: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 255, SrcIP: src6, DstIP: dst6},
		icmp)
	return []struct {
		name  string
		frame []byte
	}{
		{"lldp", lldp},
		{"arp-broadcast", arp},
		{"ipv6-neighbor-solicit", nd},
	}
}

// injectPacket runs one test packet through the switch (phase 1 of the
// differential execution). It returns the observed result, or an
// incident when injection itself fails — such packets skip simulation.
func (h *Harness) injectPacket(pkt *symbolic.TestPacket) (p4rt.InjectResult, *Incident) {
	swRes, err := h.DP.InjectFrame(p4rt.InjectRequest{Port: pkt.Port, Frame: pkt.Data})
	if err != nil {
		return swRes, &Incident{Tool: "p4-symbolic", Kind: "switch-error",
			Detail: fmt.Sprintf("goal %s: switch rejected packet: %v", pkt.GoalKey, err)}
	}
	if len(swRes.Spontaneous) > 0 {
		return swRes, &Incident{Tool: "p4-symbolic", Kind: "unexpected-packet-in",
			Detail: fmt.Sprintf("goal %s: switch sent %d unexpected packets to the controller", pkt.GoalKey, len(swRes.Spontaneous))}
	}
	return swRes, nil
}

// comparePacket checks one observed switch behavior against the
// simulator's valid behavior set (phase 2, safe to run concurrently
// across packets given a private simulator). When cov is non-nil, the
// simulator's execution traces (which tables matched which entries,
// which actions ran) are harvested into it — the data-plane half of the
// coverage map.
func (h *Harness) comparePacket(sim bmv2.Simulator, pkt *symbolic.TestPacket, swRes p4rt.InjectResult, cov *coverage.Map) *Incident {
	behaviors, err := sim.BehaviorSet(bmv2.Input{Port: pkt.Port, Packet: pkt.Data}, maxBehaviors)
	if err != nil {
		return &Incident{Tool: "p4-symbolic", Kind: "simulator-error",
			Detail: fmt.Sprintf("goal %s: simulator failed: %v", pkt.GoalKey, err)}
	}
	if cov != nil {
		for _, b := range behaviors {
			for _, th := range b.Trace {
				cov.NoteDataPlaneHit(th.Table, th.EntryKey, th.Action)
			}
		}
	}
	swSig, err := h.switchSignature(swRes)
	if err != nil {
		return &Incident{Tool: "p4-symbolic", Kind: "switch-output-malformed",
			Detail: fmt.Sprintf("goal %s: %v", pkt.GoalKey, err)}
	}
	var simSigs []string
	for _, b := range behaviors {
		sig, err := h.simSignature(b)
		if err != nil {
			return &Incident{Tool: "p4-symbolic", Kind: "simulator-output-malformed",
				Detail: fmt.Sprintf("goal %s: %v", pkt.GoalKey, err)}
		}
		if sig == swSig {
			return nil // observed behavior is in the valid set
		}
		simSigs = append(simSigs, sig)
	}
	return &Incident{Tool: "p4-symbolic", Kind: "behavior-mismatch",
		Detail: fmt.Sprintf("goal %s: switch behavior %q not in model's valid set %q (packet %x)",
			pkt.GoalKey, swSig, simSigs, pkt.Data)}
}

// fieldSignature renders the model-visible content of a frame: header
// fields plus opaque payload. Unmodeled wire bytes (e.g. TCP sequence
// numbers) are deliberately excluded, since the model cannot constrain
// them.
func (h *Harness) fieldSignature(frame []byte) (string, error) {
	fields, payload, err := bmv2.ParseFields(h.Info.Program(), frame)
	if err != nil {
		return "", err
	}
	sig := ""
	for i, f := range h.Info.Program().Fields {
		if f.Header == "" {
			continue // metadata is not part of the wire image
		}
		if fields[i].IsZero() {
			continue
		}
		sig += fmt.Sprintf("%s=%s;", f.Name, fields[i])
	}
	return sig + fmt.Sprintf("payload=%x", payload), nil
}

func (h *Harness) switchSignature(r p4rt.InjectResult) (string, error) {
	switch {
	case r.Punted:
		sig, err := h.fieldSignature(r.Frame)
		return "punt{" + sig + "}" + h.mirrorSig(r.Mirrors, r.CopyToCPU), err
	case r.Dropped:
		return "drop{}" + h.mirrorSigSwitch(r), nil
	default:
		sig, err := h.fieldSignature(r.Frame)
		return fmt.Sprintf("fwd[%d]{%s}", r.EgressPort, sig) + h.mirrorSig(r.Mirrors, r.CopyToCPU), err
	}
}

func (h *Harness) mirrorSigSwitch(r p4rt.InjectResult) string {
	return h.mirrorSig(r.Mirrors, r.CopyToCPU)
}

func (h *Harness) mirrorSig(mirrors []p4rt.MirrorFrame, copyToCPU bool) string {
	sig := ""
	if copyToCPU {
		sig += "+copy"
	}
	for _, m := range mirrors {
		fs, _ := h.fieldSignature(m.Frame)
		sig += fmt.Sprintf("+mirror[%d]{%s}", m.Session, fs)
	}
	return sig
}

func (h *Harness) simSignature(o *bmv2.Outcome) (string, error) {
	var mirrors []p4rt.MirrorFrame
	for _, m := range o.Mirrors {
		mirrors = append(mirrors, p4rt.MirrorFrame{Session: m.Session, Frame: m.Packet})
	}
	switch o.Disposition {
	case bmv2.Punted:
		sig, err := h.fieldSignature(o.Packet)
		return "punt{" + sig + "}" + h.mirrorSig(mirrors, o.CopyToCPU), err
	case bmv2.Dropped:
		return "drop{}" + h.mirrorSig(mirrors, o.CopyToCPU), nil
	default:
		sig, err := h.fieldSignature(o.Packet)
		return fmt.Sprintf("fwd[%d]{%s}", o.EgressPort, sig) + h.mirrorSig(mirrors, o.CopyToCPU), err
	}
}

// wipe deletes every installed entry, dependents first.
func (h *Harness) wipe() error {
	observed, err := h.Dev.Read(p4rt.ReadRequest{})
	if err != nil {
		return fmt.Errorf("switchv: reading state before wipe: %w", err)
	}
	if len(observed.Entries) == 0 {
		return nil
	}
	byTable := map[uint32][]p4rt.TableEntry{}
	for _, te := range observed.Entries {
		byTable[te.TableID] = append(byTable[te.TableID], te)
	}
	topo := h.Info.TopoOrder()
	for i := len(topo) - 1; i >= 0; i-- {
		for _, te := range byTable[topo[i].ID] {
			resp := h.Dev.Write(p4rt.WriteRequest{Updates: []p4rt.Update{{Type: p4rt.Delete, Entry: te}}})
			if !resp.OK() {
				return fmt.Errorf("switchv: wiping %s: %s", topo[i].Name, resp.String())
			}
		}
	}
	return nil
}

// drainPacketIns discards pending packet-ins (e.g. from punted test
// packets) so packet-IO checks start from a quiet stream.
func (h *Harness) drainPacketIns() {
	deadline := time.After(50 * time.Millisecond) //detlint:allow timeafter — bounded drain of an async device stream
	for {
		select {
		case _, ok := <-h.Dev.PacketIns():
			if !ok {
				return
			}
		case <-deadline:
			return
		}
	}
}

// checkPacketIO exercises the PacketOut paths. punt is a generated packet
// the model punts (nil when no packet can be punted, which skips the
// submit-to-ingress probe).
func (h *Harness) checkPacketIO(punt *symbolic.TestPacket) []Incident {
	var incidents []Incident
	h.drainPacketIns()

	// Direct egress: the frame must not be punted back.
	if err := h.Dev.PacketOut(p4rt.PacketOut{Payload: []byte("switchv-packet-out"), EgressPort: 3}); err != nil {
		incidents = append(incidents, Incident{Tool: "p4-symbolic", Kind: "packet-out-failed",
			Detail: fmt.Sprintf("direct packet-out: %v", err)})
	}
	select {
	case pin := <-h.Dev.PacketIns():
		incidents = append(incidents, Incident{Tool: "p4-symbolic", Kind: "packet-out-punted-back",
			Detail: fmt.Sprintf("direct packet-out echoed to the controller (%d bytes)", len(pin.Payload))})
	case <-time.After(100 * time.Millisecond): //detlint:allow timeafter — bounded wait for a device echo that must NOT arrive
	}

	// Submit-to-ingress: send a packet the model punts and expect it back
	// on the stream.
	if punt == nil {
		return incidents
	}
	if err := h.Dev.PacketOut(p4rt.PacketOut{Payload: punt.Data, SubmitToIngress: true}); err != nil {
		incidents = append(incidents, Incident{Tool: "p4-symbolic", Kind: "packet-out-failed",
			Detail: fmt.Sprintf("submit-to-ingress: %v", err)})
		return incidents
	}
	select {
	case <-h.Dev.PacketIns():
		// Punted back, as the model requires.
	case <-time.After(time.Second): //detlint:allow timeafter — generous bound on a punt the model guarantees
		incidents = append(incidents, Incident{Tool: "p4-symbolic", Kind: "submit-to-ingress-lost",
			Detail: "a submit-to-ingress packet the model punts never reached the controller"})
	}
	return incidents
}
