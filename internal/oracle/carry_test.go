package oracle

import (
	"reflect"
	"testing"

	"switchv/internal/fuzzer"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4/value"
	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
)

// TestCarriedStateMatchesFreshOracle: an oracle that lives through a
// campaign, carrying its decode memo and reference counts from batch to
// batch, judges every batch exactly as a fresh oracle started from the
// same adopted state does, and ends on the same state. Whenever it
// carries the reference counts, they equal a scan of the adopted state.
// It runs on a clean switch and on three faulty ones whose read-backs
// differ from the expected state.
func TestCarriedStateMatchesFreshOracle(t *testing.T) {
	const batches = 200
	info := infoMB()
	for _, tc := range []struct {
		name   string
		faults []switchsim.Fault
	}{
		{"clean", nil},
		{"modify-keeps-old-params", []switchsim.Fault{switchsim.FaultModifyKeepsOldParams}},
		{"read-drops-ternary", []switchsim.Fault{switchsim.FaultReadDropsTernary}},
		{"zero-bytes-accepted", []switchsim.Fault{switchsim.FaultZeroBytesAccepted}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw := switchsim.New("middleblock", tc.faults...)
			defer sw.Close()
			if err := sw.SetForwardingPipelineConfig(p4rt.ForwardingPipelineConfig{P4Info: info.Text()}); err != nil {
				t.Fatal(err)
			}
			f := fuzzer.New(info, fuzzer.Options{Seed: 11, NumRequests: batches, UpdatesPerRequest: 10})
			long := New(info)
			carried, readbackViolations := 0, 0
			for b := 0; b < batches; b++ {
				req, _, err := f.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				resp := sw.Write(req)
				observed, err := sw.Read(p4rt.ReadRequest{})
				if err != nil {
					t.Fatal(err)
				}
				for i, st := range resp.Statuses {
					if st.Code == p4rt.OK {
						f.NoteAccepted(req.Updates[i])
					}
				}

				fresh := New(info)
				fresh.state = long.state.Clone()
				verdicts, violations := long.CheckBatch(req, resp, observed)
				wantVerdicts, wantViolations := fresh.CheckBatch(req, resp, observed)
				if !reflect.DeepEqual(verdicts, wantVerdicts) {
					t.Fatalf("batch %d: verdicts %v, a fresh oracle's %v", b, verdicts, wantVerdicts)
				}
				if !reflect.DeepEqual(violations, wantViolations) {
					t.Fatalf("batch %d: violations %v, a fresh oracle's %v", b, violations, wantViolations)
				}
				if !sameEntries(long.state.All(info.Program()), fresh.state.All(info.Program())) {
					t.Fatalf("batch %d: the adopted states differ", b)
				}
				for _, v := range violations {
					if v.UpdateIndex < 0 {
						readbackViolations++
					}
				}
				if long.refs != nil {
					carried++
					if want := buildRefIndex(info, long.state); !reflect.DeepEqual(long.refs, want) {
						t.Fatalf("batch %d: carried reference counts differ from a scan of the state", b)
					}
					// A read-back equal to the expected state leaves one
					// copy of each entry, shared by the state and the memo.
					for _, s := range long.seen {
						if e, _ := long.state.GetKey(s.e.Table.Name, s.key); e != s.e {
							t.Fatalf("batch %d: the memo holds a copy of %s apart from the state's", b, s.key)
						}
					}
				}
			}
			if tc.faults == nil && carried != batches {
				t.Errorf("clean switch: reference counts carried through %d of %d batches", carried, batches)
			}
			if tc.faults != nil && readbackViolations == 0 {
				t.Errorf("the fault left every read-back as expected, so nothing was tested")
			}
			t.Logf("%d batches, %d carried the reference counts, %d read-back violations", batches, carried, readbackViolations)
		})
	}
}

// sameEntries reports whether two entry lists are equal, in order.
func sameEntries(a, b []*pdpi.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestReadbackMemoSeesChanges: the decode memo hides no change. An entry
// read back with one action argument changed since the last batch is a
// readback-mismatch; a malformed entry is a readback-format in every
// batch that reads it; and an entry whose match has a second kind set,
// which the memo key cannot tell from the well-formed entry, is a
// readback-format too.
func TestReadbackMemoSeesChanges(t *testing.T) {
	info := infoMB()
	nh, _ := info.TableByName("nexthop_table")
	setNexthop, _ := info.ActionByName("set_nexthop")
	e := &pdpi.Entry{
		Table:   nh,
		Matches: []pdpi.Match{{Key: "nexthop_id", Kind: ir.MatchExact, Value: value.New(1, 10)}},
		Action:  &pdpi.ActionInvocation{Action: setNexthop, Args: []value.V{value.New(1, 10), value.New(1, 10)}},
	}
	changed := e.Clone()
	changed.Action.Args[1] = value.New(2, 10)
	malformed := p4rt.ToWire(e)
	malformed.Match[0].Exact.Value = []byte{0, 1}
	twoKinds := p4rt.ToWire(e)
	twoKinds.Match[0].LPM = &p4rt.LPMMatch{Value: []byte{1}, PrefixLen: 10}

	kinds := func(vs []Violation) []string {
		var out []string
		for _, v := range vs {
			out = append(out, v.Kind)
		}
		return out
	}
	o := New(info)
	if err := o.State().Insert(e); err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct {
		read []p4rt.TableEntry
		want []string
	}{
		{[]p4rt.TableEntry{p4rt.ToWire(e)}, nil},
		{[]p4rt.TableEntry{p4rt.ToWire(changed)}, []string{"readback-mismatch"}},
		{[]p4rt.TableEntry{p4rt.ToWire(e)}, []string{"readback-mismatch"}},
		{[]p4rt.TableEntry{p4rt.ToWire(e)}, nil},
		{[]p4rt.TableEntry{malformed}, []string{"readback-format", "readback-missing"}},
		{[]p4rt.TableEntry{malformed}, []string{"readback-format", "readback-missing"}},
		{[]p4rt.TableEntry{p4rt.ToWire(e)}, nil},
		{[]p4rt.TableEntry{twoKinds}, []string{"readback-format", "readback-missing"}},
		{[]p4rt.TableEntry{p4rt.ToWire(e), malformed}, []string{"readback-format"}},
	} {
		_, violations := o.CheckBatch(p4rt.WriteRequest{}, p4rt.WriteResponse{}, p4rt.ReadResponse{Entries: step.read})
		if got := kinds(violations); !reflect.DeepEqual(got, step.want) {
			t.Errorf("batch %d: violations %v, want kinds %v", i, violations, step.want)
		}
	}
}
