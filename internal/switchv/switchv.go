// Package switchv is the SwitchV harness (§2 "Design"): it drives
// p4-fuzzer against a switch's control plane API and p4-symbolic against
// its data plane, judges the observed behavior with the oracle and the
// reference simulator, and produces incident reports for humans to
// triage.
package switchv

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"time"

	"switchv/internal/bmv2"
	"switchv/internal/coverage"
	"switchv/internal/fuzzer"
	"switchv/internal/oracle"
	"switchv/internal/p4/check"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
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

// String returns the mode's -precheck spelling.
func (m PrecheckMode) String() string {
	switch m {
	case PrecheckWarn:
		return "warn"
	case PrecheckOff:
		return "off"
	}
	return "on"
}

// Set parses a -precheck value, making *PrecheckMode a flag.Value: the
// CLIs declare -precheck with flag.Var, so a bad value is a usage error.
func (m *PrecheckMode) Set(s string) error {
	switch s {
	case "on", "":
		*m = PrecheckOn
	case "warn":
		*m = PrecheckWarn
	case "off":
		*m = PrecheckOff
	default:
		return fmt.Errorf("want on, warn, or off")
	}
	return nil
}

// Harness validates one switch against one model.
//
// A harness whose Dev is a *SelfHealingDevice is hardened: its
// control-plane campaigns also survive torn writes. A write whose ACK
// was lost in transit (transport-failure response) is resolved by
// read-back: per-update statuses are reconstructed from the observed
// state, and an update whose outcome cannot be known gets
// oracle.UnknownOutcome, which the oracle exempts from judgement. On an
// unhardened harness a torn write poisons the campaign with false
// incidents or kills it.
type Harness struct {
	Info *p4info.Info
	Dev  p4rt.Device
	DP   DataPlane
	// Precheck selects the preflight gate mode. The zero value enforces
	// the gate: a defective model silently corrupts every downstream
	// verdict, so opting out is the explicit choice.
	Precheck PrecheckMode
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

// Preflight runs the static preflight for tool and refuses on
// error-severity findings (PrecheckOn only). The report is nil under
// PrecheckOff. Every front end gates through it: both campaigns, the
// parallel engine and cmd/p4symbolic.
func (h *Harness) Preflight(tool string) (*check.Report, error) {
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
	crep, err := h.Preflight("p4-fuzzer")
	if err != nil {
		return nil, err
	}
	if opts.Coverage == nil {
		opts.Coverage = coverage.NewMapExcluding(h.Info, crep.UnreachableSet())
	}
	_, reconcile := h.Dev.(*SelfHealingDevice)
	if opts.PlateauBatches > 0 || opts.StopAfterIncidents > 0 || opts.CoverageGuided || reconcile {
		depth = 1
	}
	cov := opts.Coverage
	f := fuzzer.New(h.Info, opts)
	orc := oracle.New(h.Info)
	orc.SetCoverage(cov)
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
				if reconcile && isTransportFailure(sb.resp) {
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
}

// GenOptions returns the generator options of a round run with these
// options: the coverage mode's structural goals plus the enriched goals,
// the per-goal cache, and the preflight's unreachable tables (dead)
// decided without a check. RunDataPlane generates with exactly these;
// p4symbolic starts from them, so both report the same goals, checks
// and packets on the same entries.
func (o DataPlaneOptions) GenOptions(dead map[string]bool) symbolic.GenOptions {
	return symbolic.GenOptions{
		Mode:              o.Coverage,
		Enriched:          true,
		Cache:             o.Cache,
		UnreachableTables: dead,
	}
}

// maxBehaviors bounds the simulator behavior-set loop.
const maxBehaviors = 32

// RunDataPlane installs the given entries on the switch, generates test
// packets with p4-symbolic, runs them against both the switch and the
// reference simulator, and flags every switch behavior that is not in the
// simulator's set of valid behaviors.
//
// Both wipes, the install and the churn send their updates in runs (see
// writeRuns): one Write per run, one status per update, and the same
// update sequence as one Write per entry. The round waits on the clock
// only where no event can end a wait: its packet-IO probe reads the
// ordered packet-in stream (see checkPacketIO), and it consumes the
// packet-ins its own injections announce, so it leaves none behind.
func (h *Harness) RunDataPlane(entries []*pdpi.Entry, opts DataPlaneOptions) (*DataPlaneReport, error) {
	crep, err := h.Preflight("p4-symbolic")
	if err != nil {
		return nil, err
	}
	dead := crep.UnreachableSet()
	rep := &DataPlaneReport{Entries: len(entries)}

	// Reconcile the switch to an empty state first, as a controller would
	// before replaying a snapshot: read everything back and delete it in
	// reverse dependency order so references never dangle mid-wipe. A
	// switch whose state cannot even be read or cleared is itself a
	// finding (e.g. the P4Info push silently failed).
	if err := h.Wipe(); err != nil {
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
	for i, st := range h.writeRuns(entryUpdates(p4rt.Insert, entries), false) {
		e := entries[i]
		if st.Code != p4rt.OK {
			rep.Incidents = append(rep.Incidents, Incident{
				Tool: "p4-symbolic", Kind: "install-rejected",
				Detail: fmt.Sprintf("switch rejected valid entry %s: %s", e, oneUpdate(st)),
			})
			continue
		}
		if err := store.Insert(e); err != nil {
			return rep, fmt.Errorf("switchv: duplicate fixture entry %s", e)
		}
	}

	if opts.Churn {
		var churned []*pdpi.Entry
		for _, e := range store.All(h.Info.Program()) {
			if !(e.Table.ConstDefault && len(e.Matches) == 0) {
				churned = append(churned, e)
			}
		}
		for i, st := range h.writeRuns(entryUpdates(p4rt.Modify, churned), false) {
			if st.Code != p4rt.OK {
				rep.Incidents = append(rep.Incidents, Incident{
					Tool: "p4-symbolic", Kind: "modify-rejected",
					Detail: fmt.Sprintf("switch rejected no-op modify of %s: %s", churned[i], oneUpdate(st)),
				})
			}
		}
	}

	// Generate test packets: structural goals of the coverage mode plus
	// the standing "test engineer" assertions (§5 "Coverage
	// Constraints"), via the parallel, solve-avoiding generator.
	prog := h.Info.Program()
	genStart := time.Now()
	gen, err := symbolic.NewGenerator(prog, store, symbolic.Options{}, opts.GenOptions(dead))
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

	// Inject every packet into the switch in packet order — the switch
	// is one stateful device and injection order is part of the
	// campaign's definition — and compare each injected packet while the
	// next is on the wire. The punts, copies and spontaneous frames an
	// injection reports also arrive on the packet-in stream; the round
	// consumes them all, so none is left for a later packet-IO probe.
	injections := make(chan injection, len(all)) // never blocks the inject loop
	compared := make(chan []Incident, 1)
	go func() { compared <- h.compareRound(store, injections, opts.CoverageMap) }()
	pending := 0 // packet-ins announced and not yet read off the stream
	for i := range all {
		pkt := &all[i]
		if opts.CoverageMap != nil && i < len(packets) {
			opts.CoverageMap.NoteGoal(pkt.GoalKey)
		}
		res, failed := h.injectPacket(pkt)
		injections <- injection{pkt, res, failed}
		pending += announcedPacketIns(res)
		pending -= h.drainPacketIns(pending)
	}
	close(injections)
	h.awaitPacketIns(pending)
	rep.Incidents = append(rep.Incidents, <-compared...)
	rep.TestElapsed = time.Since(testStart)

	// Teardown: remove everything we installed, as the nightly run's
	// cleanup would. Deletion failures are control-plane bugs (e.g. the
	// default-route deletion bug).
	if err := h.Wipe(); err != nil {
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

// announcedPacketIns is the number of packet-ins an injection result
// announces: one for a punt or a copy to the CPU, and one per
// spontaneous frame.
func announcedPacketIns(r p4rt.InjectResult) int {
	n := len(r.Spontaneous)
	if r.Punted || r.CopyToCPU {
		n++
	}
	return n
}

// injection is one packet's injection: the switch's result, or the
// incident of an injection that failed.
type injection struct {
	pkt    *symbolic.TestPacket
	res    p4rt.InjectResult
	failed *Incident
}

// compareRound is the compare half of the differential execution. It
// runs on its own goroutine beside RunDataPlane's inject loop and takes
// each injection, in packet order, as soon as it has returned. A failed
// injection reports its incident; any other packet is simulated and
// compared (comparePacket) on one engine per round, reset before each
// packet, so each verdict is independent of the packets before it, and
// rendered through one signer per round. The incidents come back in
// packet order.
func (h *Harness) compareRound(store *pdpi.Store, injections <-chan injection, cov *coverage.Map) []Incident {
	var incidents []Incident
	sim, simErr := newEngine(h.Info.Program(), store)
	sg := newSigner(h.Info.Program())
	for in := range injections {
		switch {
		case in.failed != nil:
			incidents = append(incidents, *in.failed)
		case simErr != nil:
			incidents = append(incidents, Incident{Tool: "p4-symbolic", Kind: "simulator-error",
				Detail: fmt.Sprintf("goal %s: building simulator: %v", in.pkt.GoalKey, simErr)})
		default:
			sim.Reset()
			incidents = append(incidents, comparePacket(sim, sg, in.pkt, in.res, cov)...)
		}
	}
	return incidents
}

// injectPacket runs one test packet through the switch. It returns the
// observed result, or an incident when injection itself fails — such
// packets skip simulation.
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
// simulator's valid behavior set (sim is the round's engine, reset for
// this packet, and sg its signer). It also checks the packet itself: a
// table goal's packet that none of its valid behaviors hits
// (symbolic.HitsGoal) is a goal-missed incident, a defect of the
// validator's own generation, reported beside the behavior verdict.
// When cov is non-nil, the simulator's execution traces (which tables
// matched which entries, which actions ran) are harvested into it — the
// data-plane half of the coverage map.
func comparePacket(sim bmv2.Simulator, sg *signer, pkt *symbolic.TestPacket, swRes p4rt.InjectResult, cov *coverage.Map) []Incident {
	behaviors, err := sim.BehaviorSet(bmv2.Input{Port: pkt.Port, Packet: pkt.Data}, maxBehaviors)
	if err != nil {
		return []Incident{{Tool: "p4-symbolic", Kind: "simulator-error",
			Detail: fmt.Sprintf("goal %s: simulator failed: %v", pkt.GoalKey, err)}}
	}
	hit := false
	for _, b := range behaviors {
		if cov != nil {
			for _, th := range b.Trace {
				cov.NoteDataPlaneHit(th.Table, th.EntryKey, th.Action)
			}
		}
		hit = hit || symbolic.HitsGoal(b, pkt.GoalKey)
	}
	var incidents []Incident
	if inc := sg.judge(behaviors, pkt, swRes); inc != nil {
		incidents = append(incidents, *inc)
	}
	if !hit {
		incidents = append(incidents, Incident{Tool: "p4-symbolic", Kind: "goal-missed",
			Detail: fmt.Sprintf("goal %s: none of the model's %d valid behaviors of its packet hits the goal (packet %x)",
				pkt.GoalKey, len(behaviors), pkt.Data)})
	}
	return incidents
}

// signer renders behaviors for comparison (signature). It parses every
// frame into one field space it reuses, so each compare round makes its
// own, like its engine, and concurrent rounds share none.
type signer struct {
	prog   *ir.Program
	layout *bmv2.Layout
	fields []value.V
}

func newSigner(prog *ir.Program) *signer {
	return &signer{prog: prog, layout: bmv2.LayoutOf(prog), fields: make([]value.V, len(prog.Fields))}
}

// judge returns the incident for a switch behavior outside the valid
// behavior set, or nil when the set holds it.
func (sg *signer) judge(behaviors []*bmv2.Outcome, pkt *symbolic.TestPacket, swRes p4rt.InjectResult) *Incident {
	swSig, err := sg.signature(nil, switchOutcome(swRes))
	if err != nil {
		return &Incident{Tool: "p4-symbolic", Kind: "switch-output-malformed",
			Detail: fmt.Sprintf("goal %s: %v", pkt.GoalKey, err)}
	}
	var sig []byte
	var simSigs []string
	for _, b := range behaviors {
		if sig, err = sg.signature(sig[:0], b); err != nil {
			return &Incident{Tool: "p4-symbolic", Kind: "simulator-output-malformed",
				Detail: fmt.Sprintf("goal %s: %v", pkt.GoalKey, err)}
		}
		if bytes.Equal(sig, swSig) {
			return nil // observed behavior is in the valid set
		}
		simSigs = append(simSigs, string(sig))
	}
	return &Incident{Tool: "p4-symbolic", Kind: "behavior-mismatch",
		Detail: fmt.Sprintf("goal %s: switch behavior %q not in model's valid set %q (packet %x)",
			pkt.GoalKey, swSig, simSigs, pkt.Data)}
}

// fieldSignature appends the model-visible content of a frame to dst:
// header fields plus opaque payload. Unmodeled wire bytes (e.g. TCP
// sequence numbers) are deliberately excluded, since the model cannot
// constrain them. A frame that does not parse appends nothing.
func (sg *signer) fieldSignature(dst, frame []byte) ([]byte, error) {
	payload, err := sg.layout.Parse(sg.fields, bmv2.Input{Packet: frame})
	if err != nil {
		return dst, err
	}
	for i, f := range sg.prog.Fields {
		if f.Header == "" {
			continue // metadata is not part of the wire image
		}
		if sg.fields[i].IsZero() {
			continue
		}
		dst = append(dst, f.Name...)
		dst = append(dst, '=')
		dst = sg.fields[i].Append(dst)
		dst = append(dst, ';')
	}
	dst = append(dst, "payload="...)
	return hex.AppendEncode(dst, payload), nil
}

// switchOutcome is the switch's result for an injected packet as the
// simulator outcome it reports, so signature renders both alike.
func switchOutcome(r p4rt.InjectResult) *bmv2.Outcome {
	o := &bmv2.Outcome{Disposition: bmv2.Forwarded, EgressPort: r.EgressPort, Packet: r.Frame, CopyToCPU: r.CopyToCPU}
	switch {
	case r.Punted:
		o.Disposition = bmv2.Punted
	case r.Dropped:
		o.Disposition = bmv2.Dropped
	}
	for _, m := range r.Mirrors {
		o.Mirrors = append(o.Mirrors, bmv2.MirrorCopy{Session: m.Session, Packet: m.Frame})
	}
	return o
}

// signature appends the rendering of a behavior, the switch's
// (switchOutcome) or the simulator's, to dst for comparison: its
// disposition with the model-visible content of the packet it carries,
// then any copy to the CPU and the mirror copies. A dropped packet's
// content is not rendered. The error is the carried packet's parse
// error; a mirror copy that does not parse renders as {}.
func (sg *signer) signature(dst []byte, o *bmv2.Outcome) ([]byte, error) {
	var err error
	switch o.Disposition {
	case bmv2.Punted:
		dst = append(dst, "punt{"...)
		dst, err = sg.fieldSignature(dst, o.Packet)
		dst = append(dst, '}')
	case bmv2.Dropped:
		dst = append(dst, "drop{}"...)
	default:
		dst = append(dst, "fwd["...)
		dst = strconv.AppendUint(dst, uint64(o.EgressPort), 10)
		dst = append(dst, "]{"...)
		dst, err = sg.fieldSignature(dst, o.Packet)
		dst = append(dst, '}')
	}
	if o.CopyToCPU {
		dst = append(dst, "+copy"...)
	}
	for _, m := range o.Mirrors {
		dst = append(dst, "+mirror["...)
		dst = strconv.AppendUint(dst, uint64(m.Session), 10)
		dst = append(dst, "]{"...)
		dst, _ = sg.fieldSignature(dst, m.Packet)
		dst = append(dst, '}')
	}
	return dst, err
}

// entryUpdates wraps each entry in an update of type typ.
func entryUpdates(typ p4rt.UpdateType, entries []*pdpi.Entry) []p4rt.Update {
	updates := make([]p4rt.Update, len(entries))
	for i, e := range entries {
		updates[i] = p4rt.Update{Type: typ, Entry: p4rt.ToWire(e)}
	}
	return updates
}

// writeRuns sends updates in order, one Write per maximal run of
// consecutive updates whose tables share an @refers_to rank, and returns
// one status per update sent. An entry can reference only entries of
// lower-ranked tables, so no run holds both an entry and an entry it
// references, and the switch may apply a run's updates in any order
// (§4 Example 2). An update of a table whose entries may reference their
// own table, or of a table the P4Info does not name, is a run of its
// own. With stopOnError no run is sent after one that has a failed
// update; the statuses then end with that run.
func (h *Harness) writeRuns(updates []p4rt.Update, stopOnError bool) []p4rt.Status {
	rank := h.Info.Ranks()
	runKeys := make(map[uint32]int, len(rank))
	for _, t := range h.Info.Tables() {
		runKeys[t.ID] = rank[t.Name]
		if slices.Contains(h.Info.Dependencies(t), t.Name) {
			runKeys[t.ID] = -1
		}
	}
	// runKey is an update's table rank, or -1 to keep the update alone.
	runKey := func(u *p4rt.Update) int {
		if k, ok := runKeys[u.Entry.TableID]; ok {
			return k
		}
		return -1
	}
	statuses := make([]p4rt.Status, 0, len(updates))
	for start := 0; start < len(updates); {
		k := runKey(&updates[start])
		end := start + 1
		for k >= 0 && end < len(updates) && runKey(&updates[end]) == k {
			end++
		}
		run := runStatuses(h.Dev.Write(p4rt.WriteRequest{Updates: updates[start:end]}), end-start)
		statuses = append(statuses, run...)
		if stopOnError && slices.ContainsFunc(run, func(st p4rt.Status) bool { return st.Code != p4rt.OK }) {
			break
		}
		start = end
	}
	return statuses
}

// runStatuses spreads a Write's response over its n updates. A response
// with one status per update is taken as it is. Any other shape — a
// transport failure answers a multi-update Write with one INTERNAL
// status — gives every update the response's first failure, or OK.
func runStatuses(resp p4rt.WriteResponse, n int) []p4rt.Status {
	if len(resp.Statuses) == n {
		return resp.Statuses
	}
	st := p4rt.OKStatus
	if i := slices.IndexFunc(resp.Statuses, func(s p4rt.Status) bool { return s.Code != p4rt.OK }); i >= 0 {
		st = resp.Statuses[i]
	}
	out := make([]p4rt.Status, n)
	for i := range out {
		out[i] = st
	}
	return out
}

// oneUpdate renders an update's status as the response to a one-update
// Write would ("#0 CODE: msg"), whatever run the update was sent in, so
// incident details do not depend on how updates were batched.
func oneUpdate(st p4rt.Status) string {
	return (&p4rt.WriteResponse{Statuses: []p4rt.Status{st}}).String()
}

// Wipe deletes every installed entry, dependents first: it reads the
// switch back once, then deletes tables in reverse TopoOrder, each
// table's entries in read-back order, sent in runs (see writeRuns). A
// read-back entry of a table the P4Info does not name is an error, since
// Wipe cannot order its delete. A failed wipe reports its first failing
// delete. Every later delete of the same run has been attempted as well,
// so the switch may hold fewer entries than the failing delete's
// position suggests; no later run is sent.
func (h *Harness) Wipe() error {
	observed, err := h.Dev.Read(p4rt.ReadRequest{})
	if err != nil {
		return fmt.Errorf("switchv: reading state before wipe: %w", err)
	}
	if len(observed.Entries) == 0 {
		return nil
	}
	byTable := map[uint32][]p4rt.TableEntry{}
	for _, te := range observed.Entries {
		if _, ok := h.Info.TableByID(te.TableID); !ok {
			return fmt.Errorf("switchv: wiping: the switch holds an entry of table ID %d, which the P4Info does not name", te.TableID)
		}
		byTable[te.TableID] = append(byTable[te.TableID], te)
	}
	var deletes []p4rt.Update
	topo := h.Info.TopoOrder()
	for i := len(topo) - 1; i >= 0; i-- {
		for _, te := range byTable[topo[i].ID] {
			deletes = append(deletes, p4rt.Update{Type: p4rt.Delete, Entry: te})
		}
	}
	for i, st := range h.writeRuns(deletes, true) {
		if st.Code != p4rt.OK {
			t, _ := h.Info.TableByID(deletes[i].Entry.TableID)
			return fmt.Errorf("switchv: wiping %s: %s", t.Name, oneUpdate(st))
		}
	}
	return nil
}

// drainPacketIns discards up to max packet-ins already buffered on the
// stream, without waiting for more, and returns how many it discarded.
func (h *Harness) drainPacketIns(max int) int {
	n := 0
	for ; n < max; n++ {
		select {
		case _, ok := <-h.Dev.PacketIns():
			if !ok {
				return n
			}
		default:
			return n
		}
	}
	return n
}

// awaitPacketIns reads n more packet-ins off the stream, waiting at most
// one second for all of them together. It stops early when the stream
// closes.
func (h *Harness) awaitPacketIns(n int) {
	if n <= 0 {
		return
	}
	deadline := time.After(time.Second) //detlint:allow timeafter — one bound on packet-ins the switch already announced
	for ; n > 0; n-- {
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

// packetOutPayload is the direct packet-out's payload. The probe tells an
// echo of it from the submit-to-ingress punt by this payload.
var packetOutPayload = []byte("switchv-packet-out")

// checkPacketIO exercises the PacketOut paths. punt is a generated packet
// the model punts (nil when no packet can be punted, which skips the
// submit-to-ingress probe).
//
// The probe sends the direct packet-out, then the submit-to-ingress
// packet, and reads the packet-in stream up to the first packet-in whose
// payload is not the direct packet-out's: the probe's punt. The stream is
// ordered end to end (switch, server fan-out, one connection, client),
// and a switch emits any echo of the first PacketOut while it handles it,
// before it receives the second; so every packet-in ahead of the punt
// that carries the direct payload is an echo. Only when no probe can be
// sent does nothing end the echo wait, and a fixed bound does; other
// packet-ins are then not the probe's concern.
func (h *Harness) checkPacketIO(punt *symbolic.TestPacket) []Incident {
	var incidents []Incident
	fail := func(detail string) {
		incidents = append(incidents, Incident{Tool: "p4-symbolic", Kind: "packet-out-failed", Detail: detail})
	}
	echo := func(pin p4rt.PacketIn) {
		incidents = append(incidents, Incident{Tool: "p4-symbolic", Kind: "packet-out-punted-back",
			Detail: fmt.Sprintf("direct packet-out echoed to the controller (%d bytes)", len(pin.Payload))})
	}
	const closed = "the packet-in stream is closed, so no echo or punt can be observed"
	h.drainPacketIns(len(h.Dev.PacketIns()))

	// Direct egress: the frame must not be punted back.
	if err := h.Dev.PacketOut(p4rt.PacketOut{Payload: packetOutPayload, EgressPort: 3}); err != nil {
		fail(fmt.Sprintf("direct packet-out: %v", err))
	}
	// Submit-to-ingress: send a packet the model punts and expect it back
	// on the stream.
	if punt != nil {
		if err := h.Dev.PacketOut(p4rt.PacketOut{Payload: punt.Data, SubmitToIngress: true}); err != nil {
			fail(fmt.Sprintf("submit-to-ingress: %v", err))
			punt = nil
		}
	}
	// The probe's punt ends the read, within 1 s. With no probe in flight
	// nothing on the stream can end the wait for an echo, so 100 ms does.
	var deadline <-chan time.Time
	if punt != nil {
		deadline = time.After(time.Second) //detlint:allow timeafter — generous bound on a punt the model guarantees
	} else {
		deadline = time.After(100 * time.Millisecond) //detlint:allow timeafter — no punt follows to end the wait for an echo that must NOT arrive
	}
	for {
		select {
		case pin, ok := <-h.Dev.PacketIns():
			switch {
			case !ok:
				fail(closed)
				return incidents
			case bytes.Equal(pin.Payload, packetOutPayload):
				echo(pin)
			case punt != nil:
				return incidents // the probe's punt, as the model requires
			}
		case <-deadline:
			if punt != nil {
				incidents = append(incidents, Incident{Tool: "p4-symbolic", Kind: "submit-to-ingress-lost",
					Detail: "a submit-to-ingress packet the model punts never reached the controller"})
			}
			return incidents
		}
	}
}
