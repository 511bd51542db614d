package p4rt

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
	"switchv/models"
)

func TestCanonicalize(t *testing.T) {
	cases := []struct{ in, want []byte }{
		{[]byte{0, 0, 1}, []byte{1}},
		{[]byte{0}, []byte{0}},
		{[]byte{0, 0}, []byte{0}},
		{[]byte{1, 0}, []byte{1, 0}},
		{nil, []byte{0}},
	}
	for _, c := range cases {
		if got := Canonicalize(c.in); !bytes.Equal(got, c.want) {
			t.Errorf("Canonicalize(%x) = %x, want %x", c.in, got, c.want)
		}
	}
	if IsCanonical(nil) || IsCanonical([]byte{0, 1}) {
		t.Error("IsCanonical accepted non-canonical input")
	}
	if !IsCanonical([]byte{0}) || !IsCanonical([]byte{1, 0}) {
		t.Error("IsCanonical rejected canonical input")
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	f := func(b []byte) bool {
		c := Canonicalize(b)
		return IsCanonical(c) && bytes.Equal(Canonicalize(c), c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeValue(t *testing.T) {
	v := value.New(0x0a000001, 32)
	b := EncodeValue(v)
	if !bytes.Equal(b, []byte{0x0a, 0, 0, 1}) {
		t.Fatalf("EncodeValue = %x", b)
	}
	got, err := DecodeValue(b, 32)
	if err != nil || !got.Equal(v) {
		t.Errorf("DecodeValue = %v, %v", got, err)
	}
	// Zero encodes to a single byte.
	if b := EncodeValue(value.Zero(32)); !bytes.Equal(b, []byte{0}) {
		t.Errorf("EncodeValue(0) = %x", b)
	}
	// Non-canonical rejected (the zero-bytes toolchain bug class).
	if _, err := DecodeValue([]byte{0, 1}, 32); err == nil {
		t.Error("non-canonical value decoded")
	}
	// Overflow rejected.
	if _, err := DecodeValue([]byte{0x04}, 2); err == nil {
		t.Error("overflow decoded")
	}
	if !EqualBytes([]byte{0, 0, 5}, []byte{5}) {
		t.Error("EqualBytes failed")
	}
}

func sampleWriteRequest() WriteRequest {
	return WriteRequest{
		DeviceID: 7,
		Updates: []Update{
			{Type: Insert, Entry: TableEntry{
				TableID:  0x02000001,
				Priority: 10,
				Match: []FieldMatch{
					{FieldID: 1, Exact: &ExactMatch{Value: []byte{5}}},
					{FieldID: 2, LPM: &LPMMatch{Value: []byte{10, 0, 0, 0}, PrefixLen: 8}},
					{FieldID: 3, Ternary: &TernaryMatch{Value: []byte{1}, Mask: []byte{0xff}}},
					{FieldID: 4, Optional: &OptionalMatch{Value: []byte{1}}},
				},
				Action: TableAction{Action: &Action{
					ActionID: 0x01000002,
					Params:   []ActionParam{{ParamID: 1, Value: []byte{3}}},
				}},
			}},
			{Type: Delete, Entry: TableEntry{
				TableID: 0x02000005,
				Match:   []FieldMatch{{FieldID: 1, Exact: &ExactMatch{Value: []byte{9}}}},
				Action: TableAction{
					HasActionSet: true,
					ActionSet: []ActionProfileAction{
						{Action: Action{ActionID: 0x01000003, Params: []ActionParam{{ParamID: 1, Value: []byte{1}}}}, Weight: 2},
						{Action: Action{ActionID: 0x01000003, Params: []ActionParam{{ParamID: 1, Value: []byte{2}}}}, Weight: 1},
					},
				},
			}},
		},
	}
}

func TestCodecRoundTrips(t *testing.T) {
	wr := sampleWriteRequest()
	got, err := decodeWriteRequest(encodeWriteRequest(&wr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wr, got) {
		t.Errorf("WriteRequest round trip:\n got %+v\nwant %+v", got, wr)
	}

	wresp := WriteResponse{Statuses: []Status{{}, {Code: NotFound, Message: "gone"}}}
	gotW, err := decodeWriteResponse(encodeWriteResponse(&wresp))
	if err != nil || !reflect.DeepEqual(wresp, gotW) {
		t.Errorf("WriteResponse round trip: %+v, %v", gotW, err)
	}

	rr := ReadRequest{DeviceID: 3, TableID: 0x02000001}
	gotR, err := decodeReadRequest(encodeReadRequest(&rr))
	if err != nil || gotR != rr {
		t.Errorf("ReadRequest round trip: %+v, %v", gotR, err)
	}

	rresp := ReadResponse{Entries: []TableEntry{wr.Updates[0].Entry, wr.Updates[1].Entry}}
	gotRR, err := decodeReadResponse(encodeReadResponse(nil, &rresp))
	if err != nil || !reflect.DeepEqual(rresp, gotRR) {
		t.Errorf("ReadResponse round trip: %+v, %v", gotRR, err)
	}

	cfg := ForwardingPipelineConfig{P4Info: "pkg_info { }", Cookie: 99}
	gotC, err := decodePipelineConfig(encodePipelineConfig(&cfg))
	if err != nil || gotC != cfg {
		t.Errorf("PipelineConfig round trip: %+v, %v", gotC, err)
	}

	po := PacketOut{Payload: []byte{1, 2, 3}, EgressPort: 4, SubmitToIngress: true}
	gotP, err := decodePacketOut(encodePacketOut(&po))
	if err != nil || !reflect.DeepEqual(po, gotP) {
		t.Errorf("PacketOut round trip: %+v, %v", gotP, err)
	}

	pi := PacketIn{Payload: []byte{9}, IngressPort: 2, IsCopy: true}
	gotPI, err := decodePacketIn(encodePacketIn(&pi))
	if err != nil || !reflect.DeepEqual(pi, gotPI) {
		t.Errorf("PacketIn round trip: %+v, %v", gotPI, err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	wr := sampleWriteRequest()
	full := encodeWriteRequest(&wr)
	for _, n := range []int{0, 1, 5, 9, 13, len(full) / 2, len(full) - 1} {
		if _, err := decodeWriteRequest(full[:n]); err == nil {
			t.Errorf("decoded truncated request of %d bytes", n)
		}
	}
}

func TestStatus(t *testing.T) {
	if OKStatus.Err() != nil {
		t.Error("OK status produced an error")
	}
	st := Statusf(NotFound, "entry %d", 7)
	err := st.Err()
	if err == nil || !strings.Contains(err.Error(), "NOT_FOUND") {
		t.Errorf("err = %v", err)
	}
	if got := StatusFromError(err); got != st {
		t.Errorf("StatusFromError = %+v", got)
	}
	if got := StatusFromError(nil); got.Code != OK {
		t.Errorf("StatusFromError(nil) = %+v", got)
	}
	resp := WriteResponse{Statuses: []Status{{}, st}}
	if resp.OK() || resp.ErrorCount() != 1 {
		t.Errorf("resp = %+v", resp)
	}
	if s := resp.String(); !strings.Contains(s, "#1") {
		t.Errorf("String = %q", s)
	}
}

func TestConvRoundTrip(t *testing.T) {
	p := models.Middleblock()
	info := p4info.New(p)
	tbl, _ := p.TableByName("ipv4_table")
	act, _ := p.ActionByName("set_nexthop_id")
	e := &pdpi.Entry{
		Table: tbl,
		Matches: []pdpi.Match{
			{Key: "vrf_id", Kind: ir.MatchExact, Value: value.New(1, 10)},
			{Key: "ipv4_dst", Kind: ir.MatchLPM, Value: value.New(0x0a000000, 32), PrefixLen: 8},
		},
		Action: &pdpi.ActionInvocation{Action: act, Args: []value.V{value.New(3, 10)}},
	}
	te := ToWire(e)
	back, err := FromWire(info, &te)
	if err != nil {
		t.Fatal(err)
	}
	if back.Key() != e.Key() {
		t.Errorf("round trip key: %s vs %s", back.Key(), e.Key())
	}
	if back.Action.Action != act || !back.Action.Args[0].Equal(e.Action.Args[0]) {
		t.Errorf("round trip action: %+v", back.Action)
	}
}

func TestConvSelectorRoundTrip(t *testing.T) {
	p := models.Middleblock()
	info := p4info.New(p)
	tbl, _ := p.TableByName("wcmp_group_table")
	act, _ := p.ActionByName("set_nexthop_id")
	e := &pdpi.Entry{
		Table:   tbl,
		Matches: []pdpi.Match{{Key: "wcmp_group_id", Kind: ir.MatchExact, Value: value.New(4, 10)}},
		ActionSet: []pdpi.WeightedAction{
			{ActionInvocation: pdpi.ActionInvocation{Action: act, Args: []value.V{value.New(1, 10)}}, Weight: 2},
			{ActionInvocation: pdpi.ActionInvocation{Action: act, Args: []value.V{value.New(2, 10)}}, Weight: 3},
		},
	}
	te := ToWire(e)
	back, err := FromWire(info, &te)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.ActionSet) != 2 || back.ActionSet[1].Weight != 3 {
		t.Errorf("action set = %+v", back.ActionSet)
	}
}

func TestConvErrors(t *testing.T) {
	p := models.Middleblock()
	info := p4info.New(p)
	ipv4, _ := p.TableByName("ipv4_table")
	drop, _ := p.ActionByName("drop")

	goodMatch := []FieldMatch{
		{FieldID: 1, Exact: &ExactMatch{Value: []byte{1}}},
		{FieldID: 2, LPM: &LPMMatch{Value: []byte{10, 0, 0, 0}, PrefixLen: 8}},
	}
	_ = drop

	cases := []struct {
		name    string
		entry   TableEntry
		wantSub string
	}{
		{"unknown table", TableEntry{TableID: 0xdead}, "unknown table"},
		{"unknown field id", TableEntry{
			TableID: ipv4.ID,
			Match:   []FieldMatch{{FieldID: 99, Exact: &ExactMatch{Value: []byte{1}}}},
		}, "unknown match field"},
		{"duplicate field", TableEntry{
			TableID: ipv4.ID,
			Match: []FieldMatch{
				{FieldID: 1, Exact: &ExactMatch{Value: []byte{1}}},
				{FieldID: 1, Exact: &ExactMatch{Value: []byte{2}}},
			},
		}, "duplicate match"},
		{"wrong match kind", TableEntry{
			TableID: ipv4.ID,
			Match:   []FieldMatch{{FieldID: 1, LPM: &LPMMatch{Value: []byte{1}, PrefixLen: 8}}},
		}, "lpm match on exact key"},
		{"two kinds", TableEntry{
			TableID: ipv4.ID,
			Match: []FieldMatch{{
				FieldID: 1,
				Exact:   &ExactMatch{Value: []byte{1}},
				LPM:     &LPMMatch{Value: []byte{1}, PrefixLen: 8},
			}},
		}, "match kinds"},
		{"non-canonical", TableEntry{
			TableID: ipv4.ID,
			Match: []FieldMatch{
				{FieldID: 1, Exact: &ExactMatch{Value: []byte{0, 1}}},
				goodMatch[1],
			},
		}, "not canonical"},
		{"unknown action", TableEntry{
			TableID: ipv4.ID,
			Match:   goodMatch,
			Action:  TableAction{Action: &Action{ActionID: 0xbad}},
		}, "unknown action"},
		{"missing mandatory", TableEntry{
			TableID: ipv4.ID,
			Match:   goodMatch[:1],
			Action:  TableAction{Action: &Action{ActionID: mustAction(p, "drop").ID}},
		}, "mandatory"},
		{"action set on plain table", TableEntry{
			TableID: ipv4.ID,
			Match:   goodMatch,
			Action: TableAction{HasActionSet: true, ActionSet: []ActionProfileAction{
				{Action: Action{ActionID: mustAction(p, "drop").ID}, Weight: 1},
			}},
		}, "not a selector"},
		{"no action", TableEntry{
			TableID: ipv4.ID,
			Match:   goodMatch,
		}, "no action"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := FromWire(info, &c.entry)
			if err == nil {
				t.Fatal("FromWire succeeded")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error = %v, want substring %q", err, c.wantSub)
			}
		})
	}
}

func mustAction(p *ir.Program, name string) *ir.Action {
	a, ok := p.ActionByName(name)
	if !ok {
		panic("missing action " + name)
	}
	return a
}

func TestParamOrderIndependence(t *testing.T) {
	p := models.Middleblock()
	info := p4info.New(p)
	nexthop, _ := p.TableByName("nexthop_table")
	setNexthop, _ := p.ActionByName("set_nexthop")
	te := TableEntry{
		TableID: nexthop.ID,
		Match:   []FieldMatch{{FieldID: 1, Exact: &ExactMatch{Value: []byte{7}}}},
		Action: TableAction{Action: &Action{
			ActionID: setNexthop.ID,
			Params: []ActionParam{
				{ParamID: 2, Value: []byte{22}},
				{ParamID: 1, Value: []byte{11}},
			},
		}},
	}
	e, err := FromWire(info, &te)
	if err != nil {
		t.Fatal(err)
	}
	if e.Action.Args[0].Uint64() != 11 || e.Action.Args[1].Uint64() != 22 {
		t.Errorf("args = %v", e.Action.Args)
	}
	// Duplicate param id rejected.
	te.Action.Action.Params[0].ParamID = 1
	if _, err := FromWire(info, &te); err == nil {
		t.Error("duplicate param id accepted")
	}
}

// TestReadResponseSizing: a read response is encoded after its prefix in
// one buffer grown once to the exact size, and decoding sizes each slice
// from its count without trusting a count the payload cannot hold.
func TestReadResponseSizing(t *testing.T) {
	wr := sampleWriteRequest()
	rresp := ReadResponse{Entries: []TableEntry{wr.Updates[0].Entry, wr.Updates[1].Entry, {TableID: 1}}}
	body := &enc{}
	body.u32(uint32(len(rresp.Entries)))
	for i := range rresp.Entries {
		n := len(body.buf)
		encodeTableEntry(body, &rresp.Entries[i])
		if got, want := tableEntrySize(&rresp.Entries[i]), len(body.buf)-n; got != want {
			t.Errorf("entry %d: tableEntrySize %d, encoded %d bytes", i, got, want)
		}
	}
	prefix := encodeStatus(OKStatus)
	b := encodeReadResponse(prefix, &rresp)
	if !bytes.Equal(b, append(append([]byte(nil), prefix...), body.buf...)) {
		t.Error("encodeReadResponse differs from the status followed by the encoded entries")
	}

	empty, err := decodeReadResponse(encodeReadResponse(nil, &ReadResponse{}))
	if err != nil || empty.Entries != nil {
		t.Errorf("empty read response decoded to %#v, %v", empty, err)
	}
	// A count of 2^32-1 entries with nothing after it allocates nothing
	// ahead; the one entry is the failed decode's.
	if r, err := decodeReadResponse([]byte{0xff, 0xff, 0xff, 0xff}); err == nil || cap(r.Entries) > 1 {
		t.Errorf("hostile count: %d entries allocated, error %v", cap(r.Entries), err)
	}
}

// TestAppendEntryKey: the key tells apart entries that FromWire could
// decode differently, and refuses an entry whose match has other than
// exactly one kind set, which the encoding cannot represent.
func TestAppendEntryKey(t *testing.T) {
	wr := sampleWriteRequest()
	a := wr.Updates[0].Entry
	ka, ok := AppendEntryKey(nil, &a)
	if !ok {
		t.Fatal("a well-formed entry has no key")
	}
	if kb, _ := AppendEntryKey(nil, &sampleWriteRequest().Updates[0].Entry); !bytes.Equal(ka, kb) {
		t.Error("equal entries have different keys")
	}
	b := sampleWriteRequest().Updates[0].Entry
	b.Action.Action.Params[0].Value = []byte{4}
	if kb, _ := AppendEntryKey(nil, &b); bytes.Equal(ka, kb) {
		t.Error("entries differing in an action argument share a key")
	}
	b = sampleWriteRequest().Updates[0].Entry
	b.Match[0].LPM = &LPMMatch{Value: []byte{5}, PrefixLen: 8}
	if kb, ok := AppendEntryKey([]byte("x"), &b); ok || string(kb) != "x" {
		t.Errorf("a match with two kinds got a key: %v", ok)
	}
	b = sampleWriteRequest().Updates[0].Entry
	b.Match[0].Exact = nil
	if _, ok := AppendEntryKey(nil, &b); ok {
		t.Error("a match with no kind got a key")
	}
}
