package switchv

import (
	"fmt"
	"strings"
	"testing"

	"switchv/internal/bmv2"
	"switchv/internal/p4/compile"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
	"switchv/internal/workload"
	"switchv/models"
)

// fmtFieldSignature and fmtSignature are the fmt-based renderings that
// fieldSignature and signature replaced, kept as the reference the
// appending renderers must match byte for byte.
func fmtFieldSignature(h *Harness, frame []byte) (string, error) {
	fields, payload, err := bmv2.ParseFields(h.Info.Program(), frame)
	if err != nil {
		return "", err
	}
	sig := ""
	for i, f := range h.Info.Program().Fields {
		if f.Header == "" {
			continue
		}
		if fields[i].IsZero() {
			continue
		}
		sig += fmt.Sprintf("%s=%s;", f.Name, fields[i])
	}
	return sig + fmt.Sprintf("payload=%x", payload), nil
}

func fmtSignature(h *Harness, o *bmv2.Outcome) (string, error) {
	var sig string
	var err error
	switch o.Disposition {
	case bmv2.Punted:
		sig, err = fmtFieldSignature(h, o.Packet)
		sig = "punt{" + sig + "}"
	case bmv2.Dropped:
		sig = "drop{}"
	default:
		sig, err = fmtFieldSignature(h, o.Packet)
		sig = fmt.Sprintf("fwd[%d]{%s}", o.EgressPort, sig)
	}
	if o.CopyToCPU {
		sig += "+copy"
	}
	for _, m := range o.Mirrors {
		fs, _ := fmtFieldSignature(h, m.Packet)
		sig += fmt.Sprintf("+mirror[%d]{%s}", m.Session, fs)
	}
	return sig, err
}

// checkSignature requires sg to render o exactly as fmtSignature does,
// with the same error, and returns the rendering.
func checkSignature(t *testing.T, h *Harness, sg *signer, o *bmv2.Outcome, what string) string {
	t.Helper()
	want, wantErr := fmtSignature(h, o)
	got, err := sg.signature([]byte("prefix:"), o)
	if string(got) != "prefix:"+want {
		t.Errorf("%s: signature\n%q\nwant\n%q", what, got, "prefix:"+want)
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Errorf("%s: signature error %v, want %v", what, err, wantErr)
	}
	return want
}

// recordingPlane records every injection and the switch's result.
type recordingPlane struct {
	DataPlane
	reqs    []p4rt.InjectRequest
	results []p4rt.InjectResult
}

func (d *recordingPlane) InjectFrame(req p4rt.InjectRequest) (p4rt.InjectResult, error) {
	res, err := d.DataPlane.InjectFrame(req)
	d.reqs = append(d.reqs, req)
	d.results = append(d.results, res)
	return res, err
}

// TestSignatureMatchesFmt: the appending signature renders every switch
// outcome and every simulator behavior of the seed-42 798-entry
// middleblock round (Table 3's Inst1) byte for byte as the fmt-based
// rendering did, and so do forwarded, punted, dropped, copied and
// mirrored outcomes and frames the parser rejects. One signer renders
// them all, as one does a round, so no frame's fields may leak into the
// next one's rendering.
func TestSignatureMatchesFmt(t *testing.T) {
	prog := models.MustLoad("middleblock")
	entries := workload.MustEntries(prog, 798, 42)
	sw := switchsim.New("middleblock")
	dp := &recordingPlane{DataPlane: sw}
	h := New(p4info.New(prog), sw, dp)
	if err := h.PushPipeline(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunDataPlane(entries, DataPlaneOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(dp.reqs) < 800 {
		t.Fatalf("round injected %d packets, want the round's 807", len(dp.reqs))
	}
	store := pdpi.NewStore()
	for _, e := range entries {
		if err := store.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	sim, err := compile.New(prog, store)
	if err != nil {
		t.Fatal(err)
	}
	sg := newSigner(prog)
	seen := map[string]int{}
	note := func(sig string) {
		kind, _, _ := strings.Cut(sig, "{")
		seen[strings.TrimRight(kind, "[0123456789]")]++
		if strings.Contains(sig, "+copy") {
			seen["copy"]++
		}
	}
	behaviors := 0
	for i, req := range dp.reqs {
		note(checkSignature(t, h, sg, switchOutcome(dp.results[i]), fmt.Sprintf("switch outcome %d", i)))
		sim.Reset()
		set, err := sim.BehaviorSet(bmv2.Input{Port: req.Port, Packet: req.Frame}, maxBehaviors)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		for j, b := range set {
			note(checkSignature(t, h, sg, b, fmt.Sprintf("packet %d behavior %d", i, j)))
			behaviors++
		}
	}
	t.Logf("%d switch outcomes and %d simulator behaviors render alike; kinds %v", len(dp.reqs), behaviors, seen)

	frame := dp.reqs[0].Frame
	bad := []byte{0x02, 0x00, 0x00}
	if _, _, err := bmv2.ParseFields(prog, bad); err == nil {
		t.Fatal("the short frame parses; pick one the parser rejects")
	}
	for _, tc := range []struct {
		name string
		o    *bmv2.Outcome
		want string // a substring of the rendering
	}{
		{"forwarded", &bmv2.Outcome{Disposition: bmv2.Forwarded, EgressPort: 7, Packet: frame}, "fwd[7]{"},
		{"punted", &bmv2.Outcome{Disposition: bmv2.Punted, Packet: frame}, "punt{"},
		{"dropped", &bmv2.Outcome{Disposition: bmv2.Dropped, Packet: frame}, "drop{}"},
		{"copied", &bmv2.Outcome{Disposition: bmv2.Forwarded, EgressPort: 65535, Packet: frame, CopyToCPU: true}, "}+copy"},
		{"mirrored", &bmv2.Outcome{Disposition: bmv2.Forwarded, EgressPort: 1, Packet: frame,
			Mirrors: []bmv2.MirrorCopy{{Session: 5, Packet: frame}, {Session: 65535, Packet: frame}}}, "+mirror[65535]{"},
		{"switch mirrored and copied", switchOutcome(p4rt.InjectResult{EgressPort: 3, Frame: frame, CopyToCPU: true,
			Mirrors: []p4rt.MirrorFrame{{Session: 2, Frame: frame}}}), "+copy+mirror[2]{"},
		{"forwarded unparsable", &bmv2.Outcome{Disposition: bmv2.Forwarded, EgressPort: 9, Packet: bad}, "fwd[9]{}"},
		{"punted unparsable", &bmv2.Outcome{Disposition: bmv2.Punted, Packet: bad, CopyToCPU: true}, "punt{}+copy"},
		{"mirror unparsable", &bmv2.Outcome{Disposition: bmv2.Dropped, Packet: bad,
			Mirrors: []bmv2.MirrorCopy{{Session: 1, Packet: bad}, {Session: 4, Packet: frame}}}, "drop{}+mirror[1]{}+mirror[4]{"},
		{"empty frame", &bmv2.Outcome{Disposition: bmv2.Forwarded, EgressPort: 0}, "fwd[0]{}"},
	} {
		if got := checkSignature(t, h, sg, tc.o, tc.name); !strings.Contains(got, tc.want) {
			t.Errorf("%s: rendering %q lacks %q", tc.name, got, tc.want)
		}
	}
}
