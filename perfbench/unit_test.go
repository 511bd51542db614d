package main

import (
	"encoding/json"
	"net"
	"os"
	"testing"
	"time"

	"switchv/internal/p4rt"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	// round [0,100) with children [10,30) and [40,70); the second child
	// has a grandchild [45,50). A separate root [200,210) has no children.
	spans := []span{
		{id: 0, parent: -1, start: 0, end: 100 * ms},
		{id: 1, parent: 0, start: 10 * ms, end: 30 * ms},
		{id: 2, parent: 0, start: 40 * ms, end: 70 * ms},
		{id: 3, parent: 2, start: 45 * ms, end: 50 * ms},
		{id: 4, parent: -1, start: 200 * ms, end: 210 * ms},
	}
	want := []time.Duration{50 * ms, 20 * ms, 25 * ms, 5 * ms, 10 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %v, want %v", i, got[i], want[i])
		}
	}
	if c := childTotal(spans, 0); c != 50*ms {
		t.Errorf("child total of the round = %v, want 50ms", c)
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != 110*ms {
		t.Errorf("self times sum to %v, want the roots' 110ms", sum)
	}
}

func TestRecorderSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("round", "switchv", -1, tidRound)
	id := r.begin("p4rt.Write", "p4rt", root, tidDevice)
	time.Sleep(2 * time.Millisecond)
	child := r.end(id)
	r.end(root)
	if child < 2*time.Millisecond {
		t.Errorf("child span %v shorter than the work it timed", child)
	}
	if s := r.spans[root]; s.dur() < child || childTotal(r.spans, root) != child {
		t.Errorf("root %v does not contain its child %v", s.dur(), child)
	}
	path := t.TempDir() + "/trace.json"
	if err := writeChromeTrace(path, r.spans, map[string]any{"nproc": 2}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[1].Tid != tidDevice {
		t.Errorf("unexpected trace events: %+v", doc.TraceEvents)
	}
}

func TestCountingConn(t *testing.T) {
	// net.Pipe is synchronous: every write, even an empty payload,
	// waits for a matching read, so every frame here carries a payload.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cc := &countingConn{Conn: a}
	frames := []p4rt.RawFrame{
		{Kind: p4rt.FrameWrite, ID: 1, Payload: []byte("hello")},
		{Kind: p4rt.FrameRead, ID: 2, Payload: []byte{0}},
		{Kind: p4rt.FrameInject, ID: 3, Payload: make([]byte, 1000)},
	}
	// Frame layout: 13-byte header (u32 length, u8 kind, u64 id) + payload.
	const wantTx = 13 + 5 + 13 + 1 + 13 + 1000
	done := make(chan error, 1)
	go func() {
		for range frames {
			got, err := p4rt.ReadRawFrame(b)
			if err != nil {
				done <- err
				return
			}
			if err := p4rt.WriteRawFrame(b, got); err != nil { // echo
				done <- err
				return
			}
		}
		done <- nil
	}()
	for _, f := range frames {
		if err := p4rt.WriteRawFrame(cc, f); err != nil {
			t.Fatal(err)
		}
		if _, err := p4rt.ReadRawFrame(cc); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if tx, rx := cc.tx.Load(), cc.rx.Load(); tx != wantTx || rx != wantTx {
		t.Errorf("counted tx=%d rx=%d bytes, want %d each", tx, rx, wantTx)
	}
}

func TestNames(t *testing.T) {
	for _, ok := range []string{"round_s", "p4rt.write_s", "cp-fuzz-inst1", "9lives", "a"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := string(make([]byte, 65))
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "é", "x:y", long} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"s", "ms", "1/s", "count", "MB", "updates/s", "%"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "a b", "units:per", "abcdefghijklmnopq"} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFile checks every name and unit BENCHMARK.json declares,
// and that it lists exactly the workloads and per-layer metrics the
// benchmark has.
func TestBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !validName(name) || seen[name] {
			t.Errorf("invalid or repeated name %q", name)
		}
		seen[name] = true
		if unit != "" && !validUnit(unit) {
			t.Errorf("%s: invalid unit %q", name, unit)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		check(w.Name, "")
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s unknown to perfbench", w.Name)
		}
	}
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, perfbench %d", len(bf.PerLayer), len(perLayer))
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit)
		if u := unitOf(m.Name); u != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in perfbench", m.Name, m.Unit, u)
		}
	}
}
