package switchsim

import (
	"sync"

	"switchv/internal/p4/constraints"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
	"switchv/internal/p4rt"
	"switchv/internal/packet"
	"switchv/models"
)

// Switch is the full switch under test: P4Runtime server on top of the
// orchestration agent, SyncD/SAI translation, the ASIC, and the
// switch-Linux daemons. It implements p4rt.Device, plus a data-plane
// injection interface for test packets.
type Switch struct {
	mu sync.Mutex

	role   string // "middleblock" or "wan"
	faults map[Fault]bool

	info     *p4info.Info // nil until a pipeline is pushed
	appState *pdpi.Store  // P4Runtime server's view of installed entries
	orch     *orchAgent
	asic     *ASIC

	// rawValues preserves the exact (possibly non-canonical) bytes the
	// client sent, keyed by entry key, for the zero-bytes fault.
	rawValues map[string]p4rt.TableEntry

	// refCounts tracks how many installed entries reference each
	// (table, field, value) target; the SAI-style object refcount that
	// makes referential-integrity checks cheap.
	refCounts map[string]int

	packetIns chan p4rt.PacketIn
	egressLog []EgressFrame
	injected  int // packets injected, for the port-sync fault
	closed    bool
}

var _ p4rt.Device = (*Switch)(nil)

// New builds a switch for a deployment role with the given faults enabled.
func New(role string, faults ...Fault) *Switch {
	s := &Switch{
		role:      role,
		faults:    map[Fault]bool{},
		appState:  pdpi.NewStore(),
		rawValues: map[string]p4rt.TableEntry{},
		refCounts: map[string]int{},
		packetIns: make(chan p4rt.PacketIn, 1024),
	}
	for _, f := range faults {
		s.faults[f] = true
	}
	s.asic = newASIC(role, s.hasFault)
	s.orch = newOrchAgent(s.asic, s.hasFault)
	return s
}

func (s *Switch) hasFault(f Fault) bool { return s.faults[f] }

// SetForwardingPipelineConfig implements p4rt.Device. The switch accepts
// the P4Info of its role's model; the pipeline governs all validation.
func (s *Switch) SetForwardingPipelineConfig(cfg p4rt.ForwardingPipelineConfig) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cfg.P4Info == "" {
		return p4rt.Statusf(p4rt.InvalidArgument, "empty P4Info").Err()
	}
	if s.hasFault(FaultP4InfoPushIgnored) {
		// The push "succeeds" but the config never lands (the failure is
		// not propagated internally).
		return nil
	}
	prog, err := models.Load(s.role)
	if err != nil {
		return p4rt.Statusf(p4rt.Internal, "%v", err).Err()
	}
	info := p4info.New(prog)
	if cfg.P4Info != info.Text() {
		return p4rt.Statusf(p4rt.InvalidArgument, "P4Info does not match the switch's %s role", s.role).Err()
	}
	s.info = info
	return nil
}

// Write implements p4rt.Device: per-update validation (the P4Runtime
// server layer) followed by orchestration into the ASIC.
func (s *Switch) Write(req p4rt.WriteRequest) p4rt.WriteResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := p4rt.WriteResponse{Statuses: make([]p4rt.Status, len(req.Updates))}
	if s.info == nil {
		for i := range resp.Statuses {
			resp.Statuses[i] = p4rt.Statusf(p4rt.FailedPrecondition, "no forwarding pipeline config")
		}
		return resp
	}
	for i := range req.Updates {
		resp.Statuses[i] = s.applyUpdate(&req.Updates[i])
	}
	if s.hasFault(FaultBatchAbortOnDeleteMissing) {
		// If any delete failed with NOT_FOUND, the buggy server aborts
		// the whole batch (but earlier updates were already applied...).
		for i := range req.Updates {
			if req.Updates[i].Type == p4rt.Delete && resp.Statuses[i].Code == p4rt.NotFound {
				for j := range resp.Statuses {
					resp.Statuses[j] = p4rt.Statusf(p4rt.Aborted, "batch aborted by failed delete")
				}
				break
			}
		}
	}
	return resp
}

// applyUpdate is the P4Runtime server's handling of a single update.
func (s *Switch) applyUpdate(u *p4rt.Update) p4rt.Status {
	entry := u.Entry
	if s.hasFault(FaultZeroBytesAccepted) {
		entry = canonicalizeEntry(entry)
	}
	e, err := p4rt.FromWire(s.info, &entry)
	if err != nil {
		return p4rt.StatusFromError(err)
	}

	// Semantic validation: entry restrictions and references.
	skipConstraints := s.hasFault(FaultVLANReservedAccepted) && e.Table.Name == "vlan_table"
	if !skipConstraints {
		ok, cerr := constraints.CheckEntry(e)
		if cerr != nil {
			return p4rt.Statusf(p4rt.Internal, "constraint engine: %v", cerr)
		}
		if !ok {
			s.orch.noteACLRejected(e.Table.Name)
			return p4rt.Statusf(p4rt.InvalidArgument, "entry violates @entry_restriction of %s", e.Table.Name)
		}
	}
	if u.Type != p4rt.Delete && !s.hasFault(FaultAcceptInvalidReference) {
		if msg, bad := s.danglingReference(e); bad {
			s.orch.noteACLRejected(e.Table.Name)
			return p4rt.Statusf(p4rt.InvalidArgument, "%s", msg)
		}
	}
	if s.hasFault(FaultRejectACLEntries) && e.Table.Name == "acl_ingress_table" && u.Type != p4rt.Delete {
		return p4rt.Statusf(p4rt.InvalidArgument, "internal API rejects key with space character")
	}

	// Application-state bookkeeping.
	var old *pdpi.Entry
	switch u.Type {
	case p4rt.Insert:
		if _, exists := s.appState.Get(e); exists {
			if s.hasFault(FaultWrongDuplicateStatus) {
				return p4rt.Statusf(p4rt.InvalidArgument, "duplicate entry")
			}
			return p4rt.Statusf(p4rt.AlreadyExists, "entry already exists")
		}
		if s.appState.TableLen(e.Table.Name) >= e.Table.Size {
			return p4rt.Statusf(p4rt.ResourceExhausted, "table %s is full", e.Table.Name)
		}
	case p4rt.Modify:
		prev, exists := s.appState.Get(e)
		if !exists {
			return p4rt.Statusf(p4rt.NotFound, "entry does not exist")
		}
		old = prev
	case p4rt.Delete:
		installed, exists := s.appState.Get(e)
		if !exists {
			return p4rt.Statusf(p4rt.NotFound, "entry does not exist")
		}
		if !s.hasFault(FaultAcceptInvalidReference) && s.deleteWouldDangle(installed) {
			return p4rt.Statusf(p4rt.FailedPrecondition, "entry is referenced by other entries")
		}
		// Deletion is keyed on the match; the installed entry (not the
		// request's action payload) is what leaves the switch.
		e = installed
	}

	applied := e
	if u.Type == p4rt.Modify && s.hasFault(FaultModifyKeepsOldParams) && old != nil {
		// The buggy server swaps the action but keeps the old parameters.
		applied = e.Clone()
		if applied.Action != nil && old.Action != nil && len(old.Action.Args) == len(applied.Action.Args) {
			applied.Action.Args = old.Action.Args
		}
	}

	// Orchestrate into the ASIC.
	if err := s.orch.apply(u.Type, applied, old); err != nil {
		return p4rt.StatusFromError(err)
	}

	// Commit to the application state.
	switch u.Type {
	case p4rt.Insert:
		_ = s.appState.Insert(applied)
		s.adjustRefCounts(applied, +1)
		if s.hasFault(FaultZeroBytesAccepted) {
			s.rawValues[applied.Key()] = u.Entry
		}
	case p4rt.Modify:
		if old != nil {
			s.adjustRefCounts(old, -1)
		}
		_ = s.appState.Modify(applied)
		s.adjustRefCounts(applied, +1)
	case p4rt.Delete:
		s.adjustRefCounts(applied, -1)
		_ = s.appState.Delete(applied)
		delete(s.rawValues, applied.Key())
	}
	return p4rt.OKStatus
}

// refCountKey names one referenceable target.
func refCountKey(table, field string, v value.V) string {
	return table + "\x00" + field + "\x00" + v.String()
}

// adjustRefCounts updates the reference counts for the @refers_to targets
// an entry holds.
func (s *Switch) adjustRefCounts(e *pdpi.Entry, delta int) {
	for _, m := range e.Matches {
		if k, ok := e.Table.KeyByName(m.Key); ok && k.RefersTo != nil {
			s.refCounts[refCountKey(k.RefersTo.Table, k.RefersTo.Field, m.Value)] += delta
		}
	}
	var invs []*pdpi.ActionInvocation
	if e.Action != nil {
		invs = append(invs, e.Action)
	}
	for i := range e.ActionSet {
		invs = append(invs, &e.ActionSet[i].ActionInvocation)
	}
	for _, inv := range invs {
		for i, p := range inv.Action.Params {
			if p.RefersTo != nil && i < len(inv.Args) {
				s.refCounts[refCountKey(p.RefersTo.Table, p.RefersTo.Field, inv.Args[i])] += delta
			}
		}
	}
}

// canonicalizeEntry strips leading zero bytes so a lenient (buggy) server
// accepts non-canonical input.
func canonicalizeEntry(te p4rt.TableEntry) p4rt.TableEntry {
	out := te
	out.Match = append([]p4rt.FieldMatch(nil), te.Match...)
	for i := range out.Match {
		m := &out.Match[i]
		if m.Exact != nil {
			m.Exact = &p4rt.ExactMatch{Value: p4rt.Canonicalize(m.Exact.Value)}
		}
		if m.LPM != nil {
			m.LPM = &p4rt.LPMMatch{Value: p4rt.Canonicalize(m.LPM.Value), PrefixLen: m.LPM.PrefixLen}
		}
		if m.Ternary != nil {
			m.Ternary = &p4rt.TernaryMatch{Value: p4rt.Canonicalize(m.Ternary.Value), Mask: p4rt.Canonicalize(m.Ternary.Mask)}
		}
		if m.Optional != nil {
			m.Optional = &p4rt.OptionalMatch{Value: p4rt.Canonicalize(m.Optional.Value)}
		}
	}
	if te.Action.Action != nil {
		a := *te.Action.Action
		a.Params = append([]p4rt.ActionParam(nil), a.Params...)
		for i := range a.Params {
			a.Params[i].Value = p4rt.Canonicalize(a.Params[i].Value)
		}
		out.Action.Action = &a
	}
	return out
}

// danglingReference mirrors the oracle's reference check, on the switch
// side.
func (s *Switch) danglingReference(e *pdpi.Entry) (string, bool) {
	check := func(table, field string, val value.V) bool {
		for _, target := range s.appState.Entries(table) {
			if m, ok := target.Match(field); ok && m.Value.Equal(val) {
				return true
			}
		}
		return false
	}
	for _, m := range e.Matches {
		k, ok := e.Table.KeyByName(m.Key)
		if !ok || k.RefersTo == nil {
			continue
		}
		if !check(k.RefersTo.Table, k.RefersTo.Field, m.Value) {
			return "reference does not resolve: " + k.RefersTo.Table + "." + k.RefersTo.Field, true
		}
	}
	invs := []*pdpi.ActionInvocation{}
	if e.Action != nil {
		invs = append(invs, e.Action)
	}
	for i := range e.ActionSet {
		invs = append(invs, &e.ActionSet[i].ActionInvocation)
	}
	for _, inv := range invs {
		for i, p := range inv.Action.Params {
			if p.RefersTo == nil {
				continue
			}
			if !check(p.RefersTo.Table, p.RefersTo.Field, inv.Args[i]) {
				return "reference does not resolve: " + p.RefersTo.Table + "." + p.RefersTo.Field, true
			}
		}
	}
	return "", false
}

// Read implements p4rt.Device.
func (s *Switch) Read(req p4rt.ReadRequest) (p4rt.ReadResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.info == nil {
		return p4rt.ReadResponse{}, p4rt.Statusf(p4rt.FailedPrecondition, "no forwarding pipeline config").Err()
	}
	var resp p4rt.ReadResponse
	for _, e := range s.appState.All(s.info.Program()) {
		if req.TableID != 0 && e.Table.ID != req.TableID {
			continue
		}
		te := p4rt.ToWire(e)
		if s.hasFault(FaultZeroBytesAccepted) {
			if raw, ok := s.rawValues[e.Key()]; ok {
				te = raw // echo back the non-canonical bytes as stored
			}
		}
		if s.hasFault(FaultReadDropsTernary) {
			var kept []p4rt.FieldMatch
			for _, m := range te.Match {
				if m.Ternary == nil {
					kept = append(kept, m)
				}
			}
			te.Match = kept
		}
		resp.Entries = append(resp.Entries, te)
	}
	return resp, nil
}

// PacketOut implements p4rt.Device.
func (s *Switch) PacketOut(p p4rt.PacketOut) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hasFault(FaultPacketOutPuntedBack) {
		s.pushPacketIn(p4rt.PacketIn{Payload: p.Payload, IngressPort: p.EgressPort})
	}
	if p.SubmitToIngress {
		if s.hasFault(FaultSubmitIngressDropped) {
			return nil // silently dropped: L3 not enabled for CPU-injected packets
		}
		res, err := s.forwardLocked(cpuPort, p.Payload)
		if err != nil {
			return nil // malformed packets are dropped, not errors
		}
		s.deliverResult(res)
		return nil
	}
	// Direct egress: the frame leaves on the requested port; data-plane
	// observers see it via the egress hook.
	s.deliverEgress(p.EgressPort, p.Payload)
	return nil
}

// cpuPort is the ingress port number used for submit-to-ingress packets.
const cpuPort uint16 = 0xffff

// PacketIns implements p4rt.Device.
func (s *Switch) PacketIns() <-chan p4rt.PacketIn { return s.packetIns }

// Restart models a full switch reboot with table-state loss: the
// forwarding pipeline config, app state, orchestration agent, and ASIC
// are all reset to factory-fresh, as if the whole stack restarted.
// Configured faults survive (they model firmware bugs, not state), and
// the packet-in stream stays open so connected clients keep their
// subscription across the reboot. Chaos restart mode drives this.
func (s *Switch) Restart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.info = nil
	s.appState = pdpi.NewStore()
	s.rawValues = map[string]p4rt.TableEntry{}
	s.refCounts = map[string]int{}
	s.asic = newASIC(s.role, s.hasFault)
	s.orch = newOrchAgent(s.asic, s.hasFault)
	s.egressLog = nil
	s.injected = 0
}

// Close shuts down the packet-in stream.
func (s *Switch) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.packetIns)
	}
}

func (s *Switch) pushPacketIn(p p4rt.PacketIn) {
	if s.closed {
		return
	}
	select {
	case s.packetIns <- p:
	default:
	}
}

// EgressFrame is a frame the switch transmitted on a port outside of an
// Inject call (i.e. via direct PacketOut) — the test harness's "traffic
// generator capture" view.
type EgressFrame struct {
	Port  uint16
	Frame []byte
}

func (s *Switch) deliverEgress(port uint16, frame []byte) {
	s.egressLog = append(s.egressLog, EgressFrame{Port: port, Frame: append([]byte(nil), frame...)})
}

// TakeEgress drains the log of directly transmitted frames.
func (s *Switch) TakeEgress() []EgressFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.egressLog
	s.egressLog = nil
	return out
}

// deliverResult pushes the punted/copy parts of a result to the
// controller stream.
func (s *Switch) deliverResult(res *DPResult) {
	if res.Punted {
		s.pushPacketIn(p4rt.PacketIn{Payload: res.Frame})
	}
	if res.CopyToCPU && !res.Punted {
		s.pushPacketIn(p4rt.PacketIn{Payload: res.Frame, IsCopy: true})
	}
}

// Inject sends a frame into a port and returns the observable outcome,
// including any spontaneous controller traffic caused by daemons.
func (s *Switch) Inject(port uint16, frame []byte) (*DPResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injectLocked(port, frame)
}

func (s *Switch) injectLocked(port uint16, frame []byte) (*DPResult, error) {
	s.injected++
	if s.hasFault(FaultPortSyncBreaksIO) && s.injected > 100 {
		// All packet IO is broken after the daemon restart.
		return &DPResult{Dropped: true}, nil
	}

	// Switch-Linux daemons see the packet before the ASIC.
	if s.hasFault(FaultLLDPPunt) {
		if pf, err := parseFrame(frame); err == nil && pf.eth.EtherType == 0x88cc {
			res := &DPResult{Punted: true, Frame: frame}
			s.pushPacketIn(p4rt.PacketIn{Payload: frame, IngressPort: port})
			return res, nil
		}
	}

	res, err := s.forwardLocked(port, frame)
	if err != nil {
		return nil, err
	}

	if s.hasFault(FaultRouterSolicitNoise) {
		if pf, perr := parseFrame(frame); perr == nil && pf.ipv6 != nil {
			rs := routerSolicitation()
			res.Spontaneous = append(res.Spontaneous, rs)
			s.pushPacketIn(p4rt.PacketIn{Payload: rs})
		}
	}

	s.deliverResult(res)
	return res, nil
}

func (s *Switch) forwardLocked(port uint16, frame []byte) (*DPResult, error) {
	return s.asic.Forward(port, frame)
}

// routerSolicitation builds the noise packet the faulty daemon emits.
func routerSolicitation() []byte {
	src := packet.MustParseIPv6("fe80::1")
	dst := packet.MustParseIPv6("ff02::2")
	ic := &packet.ICMPv6{Type: packet.ICMPv6TypeRouterSolicitation}
	ic.SetNetworkLayerForChecksum(src[:], dst[:])
	data, err := packet.Serialize(packet.SerializeOptions{FixLengths: true, ComputeChecksums: true},
		&packet.Ethernet{DstMAC: packet.MAC{0x33, 0x33, 0, 0, 0, 2}, EtherType: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 255, SrcIP: src, DstIP: dst},
		ic)
	if err != nil {
		panic(err)
	}
	return data
}

// deleteWouldDangle reports whether removing the installed entry e would
// leave an installed entry with a reference to a no-longer-covered key
// value, using the SAI-style reference counts.
func (s *Switch) deleteWouldDangle(e *pdpi.Entry) bool {
	covered := func(field string, v value.V) bool {
		for _, sib := range s.appState.Entries(e.Table.Name) {
			if sib == e {
				continue
			}
			if m, ok := sib.Match(field); ok && m.Value.Equal(v) {
				return true
			}
		}
		return false
	}
	for _, m := range e.Matches {
		if s.refCounts[refCountKey(e.Table.Name, m.Key, m.Value)] > 0 && !covered(m.Key, m.Value) {
			return true
		}
	}
	return false
}

// InjectFrame implements p4rt.DataPlaneDevice, adapting Inject to the
// wire-level result type.
func (s *Switch) InjectFrame(req p4rt.InjectRequest) (p4rt.InjectResult, error) {
	res, err := s.Inject(req.Port, req.Frame)
	if err != nil {
		return p4rt.InjectResult{}, p4rt.Statusf(p4rt.InvalidArgument, "%v", err).Err()
	}
	out := p4rt.InjectResult{
		Punted:      res.Punted,
		Dropped:     res.Dropped,
		EgressPort:  res.EgressPort,
		Frame:       res.Frame,
		CopyToCPU:   res.CopyToCPU,
		Spontaneous: res.Spontaneous,
	}
	for _, m := range res.Mirrors {
		out.Mirrors = append(out.Mirrors, p4rt.MirrorFrame{Session: m.Session, Frame: m.Frame})
	}
	return out, nil
}

var _ p4rt.DataPlaneDevice = (*Switch)(nil)
