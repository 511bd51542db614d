package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Trace lanes (Chrome trace-event "tid"s).
const (
	tidRound  = 1 // setup phases and rounds
	tidDevice = 2 // p4rt client calls made through the harness's device
	tidReplay = 3 // single-layer replays on a round's recorded inputs
)

// span is one timed interval. parent is the id of the enclosing span, or
// -1 for a root.
type span struct {
	id, parent int
	name, cat  string
	tid        int
	start, end time.Duration // since the recorder's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder collects spans. It is safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name, cat string, parent, tid int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{id: id, parent: parent, name: name, cat: cat, tid: tid, start: now, end: -1})
	return id
}

func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = now
	return r.spans[id].dur()
}

// add records an already finished interval.
func (r *recorder) add(name, cat string, parent, tid int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{id: len(r.spans), parent: parent, name: name, cat: cat, tid: tid,
		start: start.Sub(r.epoch), end: end.Sub(r.epoch)})
}

// selfTimes returns each span's duration minus the durations of its
// direct children, indexed by span id.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// childTotal sums the durations of parent's direct children.
func childTotal(spans []span, parent int) time.Duration {
	var total time.Duration
	for _, s := range spans {
		if s.parent == parent {
			total += s.dur()
		}
	}
	return total
}

// traceEvent is one complete ("X") event of the Chrome trace-event format.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans, with their self times, as a Chrome
// trace-event JSON file (loadable in chrome://tracing or Perfetto).
func writeChromeTrace(path string, spans []span, meta map[string]any) error {
	self := selfTimes(spans)
	events := make([]traceEvent, 0, len(spans))
	for i, s := range spans {
		args := map[string]any{"self_us": float64(self[i]) / 1e3}
		events = append(events, traceEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.tid, Args: args,
		})
	}
	doc := map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
