package p4rt

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Binary message codec. All integers are big-endian fixed width; byte
// strings and strings are length-prefixed with a u32. The encoding is
// deterministic, which the oracle relies on when comparing read-backs.

type enc struct{ buf []byte }

func (e *enc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *enc) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *enc) i32(v int32)  { e.u32(uint32(v)) }
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *enc) str(s string) { e.bytes([]byte(s)) }

type dec struct {
	buf []byte
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("p4rt: truncated message reading %s", what)
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || len(d.buf) < 1 {
		d.fail("u8")
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *dec) u16() uint16 {
	if d.err != nil || len(d.buf) < 2 {
		d.fail("u16")
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *dec) i32() int32 { return int32(d.u32()) }

func (d *dec) bool() bool { return d.u8() != 0 }

func (d *dec) bytes() []byte {
	n := d.u32()
	if d.err != nil || uint32(len(d.buf)) < n {
		d.fail("bytes")
		return nil
	}
	v := append([]byte(nil), d.buf[:n]...)
	d.buf = d.buf[n:]
	return v
}

func (d *dec) str() string { return string(d.bytes()) }

// count reads an element count and returns it with the slice to decode
// that many elements into: nil for a zero count, else a slice with room
// for no more elements than the bytes left could hold at minSize bytes
// each, so a corrupt count cannot force a large allocation.
func count[T any](d *dec, minSize int) (uint32, []T) {
	n := d.u32()
	if c := min(int(n), len(d.buf)/minSize); c > 0 {
		return n, make([]T, 0, c)
	}
	return n, nil
}

// The smallest encodings of the counted elements.
const (
	minFieldMatchSize = 4 + 1             // field id, kind 0
	minParamSize      = 4 + 4             // param id, empty value
	minActionSize     = 4 + 4             // action id, no params
	minMemberSize     = minActionSize + 4 // action, weight
	minTableEntrySize = 4 + 4 + 4 + 1     // table id, priority, no matches, no action
	minUpdateSize     = 1 + minTableEntrySize
	minStatusSize     = 4 + 4 // code, empty message
)

// Table entries.

func encodeFieldMatch(e *enc, m *FieldMatch) {
	e.u32(m.FieldID)
	var kind uint8
	switch {
	case m.Exact != nil:
		kind = 1
	case m.LPM != nil:
		kind = 2
	case m.Ternary != nil:
		kind = 3
	case m.Optional != nil:
		kind = 4
	}
	// A FieldMatch with several kinds set has no encoding: only the first
	// populated kind, in the order above, goes on the wire, and the others
	// are dropped. No fuzzer mutation sets several kinds; FromWire rejects
	// such a match when it reaches a switch in-process.
	e.u8(kind)
	switch kind {
	case 1:
		e.bytes(m.Exact.Value)
	case 2:
		e.bytes(m.LPM.Value)
		e.i32(m.LPM.PrefixLen)
	case 3:
		e.bytes(m.Ternary.Value)
		e.bytes(m.Ternary.Mask)
	case 4:
		e.bytes(m.Optional.Value)
	}
}

func decodeFieldMatch(d *dec) FieldMatch {
	m := FieldMatch{FieldID: d.u32()}
	switch d.u8() {
	case 1:
		m.Exact = &ExactMatch{Value: d.bytes()}
	case 2:
		m.LPM = &LPMMatch{Value: d.bytes(), PrefixLen: d.i32()}
	case 3:
		m.Ternary = &TernaryMatch{Value: d.bytes(), Mask: d.bytes()}
	case 4:
		m.Optional = &OptionalMatch{Value: d.bytes()}
	default:
		// kind 0: no match populated; keep all nil.
	}
	return m
}

func encodeAction(e *enc, a *Action) {
	e.u32(a.ActionID)
	e.u32(uint32(len(a.Params)))
	for _, p := range a.Params {
		e.u32(p.ParamID)
		e.bytes(p.Value)
	}
}

func decodeAction(d *dec) Action {
	a := Action{ActionID: d.u32()}
	var n uint32
	n, a.Params = count[ActionParam](d, minParamSize)
	for i := uint32(0); i < n && d.err == nil; i++ {
		a.Params = append(a.Params, ActionParam{ParamID: d.u32(), Value: d.bytes()})
	}
	return a
}

func encodeTableEntry(e *enc, t *TableEntry) {
	e.u32(t.TableID)
	e.i32(t.Priority)
	e.u32(uint32(len(t.Match)))
	for i := range t.Match {
		encodeFieldMatch(e, &t.Match[i])
	}
	switch {
	case t.Action.Action != nil:
		e.u8(1)
		encodeAction(e, t.Action.Action)
	case t.Action.HasActionSet || len(t.Action.ActionSet) > 0:
		e.u8(2)
		e.u32(uint32(len(t.Action.ActionSet)))
		for _, pa := range t.Action.ActionSet {
			encodeAction(e, &pa.Action)
			e.i32(pa.Weight)
		}
	default:
		e.u8(0)
	}
}

func decodeTableEntry(d *dec) TableEntry {
	t := TableEntry{TableID: d.u32(), Priority: d.i32()}
	var n uint32
	n, t.Match = count[FieldMatch](d, minFieldMatchSize)
	for i := uint32(0); i < n && d.err == nil; i++ {
		t.Match = append(t.Match, decodeFieldMatch(d))
	}
	switch d.u8() {
	case 1:
		a := decodeAction(d)
		t.Action.Action = &a
	case 2:
		t.Action.HasActionSet = true
		var m uint32
		m, t.Action.ActionSet = count[ActionProfileAction](d, minMemberSize)
		for i := uint32(0); i < m && d.err == nil; i++ {
			a := decodeAction(d)
			t.Action.ActionSet = append(t.Action.ActionSet, ActionProfileAction{Action: a, Weight: d.i32()})
		}
	}
	return t
}

// RPC payloads.

func encodeWriteRequest(r *WriteRequest) []byte {
	e := &enc{}
	e.u64(r.DeviceID)
	e.u32(uint32(len(r.Updates)))
	for i := range r.Updates {
		e.u8(uint8(r.Updates[i].Type))
		encodeTableEntry(e, &r.Updates[i].Entry)
	}
	return e.buf
}

func decodeWriteRequest(b []byte) (WriteRequest, error) {
	d := &dec{buf: b}
	r := WriteRequest{DeviceID: d.u64()}
	var n uint32
	n, r.Updates = count[Update](d, minUpdateSize)
	for i := uint32(0); i < n && d.err == nil; i++ {
		u := Update{Type: UpdateType(d.u8())}
		u.Entry = decodeTableEntry(d)
		r.Updates = append(r.Updates, u)
	}
	return r, d.err
}

func encodeWriteResponse(r *WriteResponse) []byte {
	e := &enc{}
	e.u32(uint32(len(r.Statuses)))
	for _, s := range r.Statuses {
		e.u32(uint32(s.Code))
		e.str(s.Message)
	}
	return e.buf
}

func decodeWriteResponse(b []byte) (WriteResponse, error) {
	d := &dec{buf: b}
	var r WriteResponse
	var n uint32
	n, r.Statuses = count[Status](d, minStatusSize)
	for i := uint32(0); i < n && d.err == nil; i++ {
		r.Statuses = append(r.Statuses, Status{Code: Code(d.u32()), Message: d.str()})
	}
	return r, d.err
}

func encodeReadRequest(r *ReadRequest) []byte {
	e := &enc{}
	e.u64(r.DeviceID)
	e.u32(r.TableID)
	return e.buf
}

func decodeReadRequest(b []byte) (ReadRequest, error) {
	d := &dec{buf: b}
	r := ReadRequest{DeviceID: d.u64(), TableID: d.u32()}
	return r, d.err
}

// encodeReadResponse appends r's encoding to prefix (the server passes the
// response status), growing it once to exactly the size both need.
func encodeReadResponse(prefix []byte, r *ReadResponse) []byte {
	size := 4
	for i := range r.Entries {
		size += tableEntrySize(&r.Entries[i])
	}
	e := &enc{buf: slices.Grow(prefix, size)}
	e.u32(uint32(len(r.Entries)))
	for i := range r.Entries {
		encodeTableEntry(e, &r.Entries[i])
	}
	return e.buf
}

// tableEntrySize is the length of encodeTableEntry's output for t.
func tableEntrySize(t *TableEntry) int {
	n := 4 + 4 + 4 + 1 // table id, priority, match count, action kind
	for i := range t.Match {
		m := &t.Match[i]
		n += 4 + 1 // field id, kind
		switch {
		case m.Exact != nil:
			n += 4 + len(m.Exact.Value)
		case m.LPM != nil:
			n += 4 + len(m.LPM.Value) + 4
		case m.Ternary != nil:
			n += 4 + len(m.Ternary.Value) + 4 + len(m.Ternary.Mask)
		case m.Optional != nil:
			n += 4 + len(m.Optional.Value)
		}
	}
	actionSize := func(a *Action) int {
		n := 4 + 4 // action id, param count
		for _, p := range a.Params {
			n += 4 + 4 + len(p.Value)
		}
		return n
	}
	switch {
	case t.Action.Action != nil:
		n += actionSize(t.Action.Action)
	case t.Action.HasActionSet || len(t.Action.ActionSet) > 0:
		n += 4
		for i := range t.Action.ActionSet {
			n += actionSize(&t.Action.ActionSet[i].Action) + 4
		}
	}
	return n
}

// AppendEntryKey appends te's wire encoding to dst, for use as the key of
// a FromWire memo: FromWire reads nothing the encoding leaves out, so two
// entries with equal keys decode alike under one P4Info. The encoding
// keeps one match kind per field, so for an entry with a match that has
// other than exactly one kind populated AppendEntryKey returns dst
// unchanged and false, and the entry must bypass the memo.
func AppendEntryKey(dst []byte, te *TableEntry) ([]byte, bool) {
	for i := range te.Match {
		if te.Match[i].KindCount() != 1 {
			return dst, false
		}
	}
	e := &enc{buf: dst}
	encodeTableEntry(e, te)
	return e.buf, true
}

func decodeReadResponse(b []byte) (ReadResponse, error) {
	d := &dec{buf: b}
	var r ReadResponse
	var n uint32
	n, r.Entries = count[TableEntry](d, minTableEntrySize)
	for i := uint32(0); i < n && d.err == nil; i++ {
		r.Entries = append(r.Entries, decodeTableEntry(d))
	}
	return r, d.err
}

func encodePipelineConfig(c *ForwardingPipelineConfig) []byte {
	e := &enc{}
	e.str(c.P4Info)
	e.u64(c.Cookie)
	return e.buf
}

func decodePipelineConfig(b []byte) (ForwardingPipelineConfig, error) {
	d := &dec{buf: b}
	c := ForwardingPipelineConfig{P4Info: d.str(), Cookie: d.u64()}
	return c, d.err
}

func encodePacketOut(p *PacketOut) []byte {
	e := &enc{}
	e.bytes(p.Payload)
	e.u16(p.EgressPort)
	e.bool(p.SubmitToIngress)
	return e.buf
}

func decodePacketOut(b []byte) (PacketOut, error) {
	d := &dec{buf: b}
	p := PacketOut{Payload: d.bytes(), EgressPort: d.u16(), SubmitToIngress: d.bool()}
	return p, d.err
}

func encodePacketIn(p *PacketIn) []byte {
	e := &enc{}
	e.bytes(p.Payload)
	e.u16(p.IngressPort)
	e.bool(p.IsCopy)
	return e.buf
}

func decodePacketIn(b []byte) (PacketIn, error) {
	d := &dec{buf: b}
	p := PacketIn{Payload: d.bytes(), IngressPort: d.u16(), IsCopy: d.bool()}
	return p, d.err
}

func encodeStatus(s Status) []byte {
	e := &enc{}
	e.u32(uint32(s.Code))
	e.str(s.Message)
	return e.buf
}

func decodeStatus(b []byte) (Status, []byte, error) {
	d := &dec{buf: b}
	s := Status{Code: Code(d.u32()), Message: d.str()}
	return s, d.buf, d.err
}
