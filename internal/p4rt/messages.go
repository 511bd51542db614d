package p4rt

import (
	"fmt"
	"strings"
)

// UpdateType is the kind of a write update.
type UpdateType int

// Update types, per the P4Runtime Write RPC.
const (
	Insert UpdateType = iota
	Modify
	Delete
)

func (u UpdateType) String() string {
	switch u {
	case Insert:
		return "INSERT"
	case Modify:
		return "MODIFY"
	case Delete:
		return "DELETE"
	default:
		return fmt.Sprintf("UpdateType(%d)", int(u))
	}
}

// ExactMatch matches a field exactly.
type ExactMatch struct{ Value []byte }

// LPMMatch matches a longest-prefix on a field.
type LPMMatch struct {
	Value     []byte
	PrefixLen int32
}

// TernaryMatch matches value/mask on a field.
type TernaryMatch struct {
	Value []byte
	Mask  []byte
}

// OptionalMatch matches a field exactly if present.
type OptionalMatch struct{ Value []byte }

// FieldMatch supplies the match for one field of a table key. Exactly one
// of the match kinds must be set. (The fuzzer deliberately violates this
// with its Invalid Match Type and Duplicate Match Field mutations.)
type FieldMatch struct {
	FieldID  uint32
	Exact    *ExactMatch
	LPM      *LPMMatch
	Ternary  *TernaryMatch
	Optional *OptionalMatch
}

// KindCount returns how many match kinds are populated.
func (m *FieldMatch) KindCount() int {
	n := 0
	if m.Exact != nil {
		n++
	}
	if m.LPM != nil {
		n++
	}
	if m.Ternary != nil {
		n++
	}
	if m.Optional != nil {
		n++
	}
	return n
}

// ActionParam is one argument of an action invocation.
type ActionParam struct {
	ParamID uint32
	Value   []byte
}

// Action is an action invocation by ID.
type Action struct {
	ActionID uint32
	Params   []ActionParam
}

// ActionProfileAction is one weighted member of a one-shot action set.
type ActionProfileAction struct {
	Action Action
	Weight int32
}

// TableAction is the action part of a table entry: either a single Action
// or a one-shot ActionProfileActionSet. (The fuzzer's Invalid Table
// Implementation mutation sends the wrong variant.)
type TableAction struct {
	Action    *Action
	ActionSet []ActionProfileAction
	// HasActionSet distinguishes an empty action set from an absent one.
	HasActionSet bool
}

// TableEntry is a wire-level table entry.
type TableEntry struct {
	TableID  uint32
	Match    []FieldMatch
	Action   TableAction
	Priority int32
}

// Update is one element of a write batch.
type Update struct {
	Type  UpdateType
	Entry TableEntry
}

// WriteRequest is a batch of updates. The switch may execute the updates
// in a single batch in any order (§4 Example 2).
type WriteRequest struct {
	DeviceID uint64
	Updates  []Update
}

// WriteResponse carries one status per update, in request order.
type WriteResponse struct {
	Statuses []Status
}

// OK reports whether every update succeeded.
func (r *WriteResponse) OK() bool {
	for _, s := range r.Statuses {
		if s.Code != OK {
			return false
		}
	}
	return true
}

// ErrorCount returns the number of failed updates.
func (r *WriteResponse) ErrorCount() int {
	n := 0
	for _, s := range r.Statuses {
		if s.Code != OK {
			n++
		}
	}
	return n
}

func (r *WriteResponse) String() string {
	if r.OK() {
		return fmt.Sprintf("OK(%d)", len(r.Statuses))
	}
	var parts []string
	for i, s := range r.Statuses {
		if s.Code != OK {
			parts = append(parts, fmt.Sprintf("#%d %s", i, s))
		}
	}
	return strings.Join(parts, "; ")
}

// ReadRequest reads back table entries. TableID 0 reads all tables.
type ReadRequest struct {
	DeviceID uint64
	TableID  uint32
}

// ReadResponse lists the entries that matched the read.
type ReadResponse struct {
	Entries []TableEntry
}

// ForwardingPipelineConfig carries the P4Info of the model governing the
// switch's control plane API.
type ForwardingPipelineConfig struct {
	P4Info string
	Cookie uint64
}

// PacketOut is a controller-to-switch packet injection.
type PacketOut struct {
	Payload []byte
	// EgressPort requests transmission on a specific port.
	EgressPort uint16
	// SubmitToIngress runs the packet through the forwarding pipeline
	// instead of sending it directly out of EgressPort.
	SubmitToIngress bool
}

// PacketIn is a switch-to-controller punted packet.
type PacketIn struct {
	Payload     []byte
	IngressPort uint16
	// IsCopy is true for copy_to_cpu (forwarding continued) as opposed to
	// punt (forwarding suppressed).
	IsCopy bool
}

// Device is the P4Runtime service surface of a switch. Both an in-process
// switch stack and the TCP Client implement it, so test harnesses are
// transport-agnostic.
type Device interface {
	// SetForwardingPipelineConfig pushes the P4Info contract.
	SetForwardingPipelineConfig(cfg ForwardingPipelineConfig) error
	// Write applies a batch of updates and reports per-update statuses.
	Write(req WriteRequest) WriteResponse
	// Read returns the entries currently installed. The entries may
	// share storage with the device (switchsim's wire memo does), so
	// callers must not mutate them.
	Read(req ReadRequest) (ReadResponse, error)
	// PacketOut injects a packet.
	PacketOut(p PacketOut) error
	// PacketIns returns the stream of punted packets. The channel is
	// closed when the device shuts down.
	PacketIns() <-chan PacketIn
}
