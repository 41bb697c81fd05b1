package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, on the real clock, in seconds
// since the recorder started. Parent is the index of the enclosing span
// in the same recorder, -1 for a root.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
}

// recorder times the benchmark's calls into the program. Every call is
// timed because the end-to-end metrics need the phase durations; spans
// are kept in memory only when tracing is on.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// mark is an open span: its start time and, when tracing, its index.
type mark struct {
	start time.Time
	idx   int
}

// begin opens a span named "<layer>.<call>" under parent (-1 = root).
func (r *recorder) begin(name string, parent int) mark {
	m := mark{start: time.Now(), idx: -1}
	if r.on {
		m.idx = len(r.spans)
		r.spans = append(r.spans, span{Name: name, Start: m.start.Sub(r.t0).Seconds(), Parent: parent})
	}
	return m
}

// end closes the span and returns its duration in seconds.
func (r *recorder) end(m mark) float64 {
	now := time.Now()
	if m.idx >= 0 {
		r.spans[m.idx].End = now.Sub(r.t0).Seconds()
	}
	return now.Sub(m.start).Seconds()
}

// layerOf maps a span name to its layer: the name without its last
// dot-separated element ("host.partmap.new" → "host.partmap"); a name
// without a dot is the benchmark's own span.
func layerOf(name string) string {
	if i := strings.LastIndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// selfLayers lists the layers the spans attribute self time to.
var selfLayers = []string{"bench", "dpu", "core", "workloads", "host.partmap", "host.rebalancer", "host.submitter", "workload"}

// selfTimes sums each layer's self time: a span's duration minus the
// part its children cover. Children of one span never overlap (the
// benchmark makes its calls one after another).
func selfTimes(spans []span) map[string]float64 {
	self := make(map[string]float64, len(selfLayers))
	for _, l := range selfLayers {
		self[l] = 0
	}
	for _, s := range spans {
		self[layerOf(s.Name)] += s.End - s.Start
		if s.Parent >= 0 {
			self[layerOf(spans[s.Parent].Name)] -= s.End - s.Start
		}
	}
	return self
}

// traceEvent is one Chrome trace-event "complete" event; the file opens
// in Perfetto or chrome://tracing.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// writeChromeTrace writes the spans of every traced repetition to path,
// one thread per repetition. Each event carries its parent's name and
// the repetition's shared id.
func writeChromeTrace(path string, ids []string, reps [][]span) error {
	var events []traceEvent
	for tid, spans := range reps {
		for _, s := range spans {
			parent := ""
			if s.Parent >= 0 {
				parent = spans[s.Parent].Name
			}
			events = append(events, traceEvent{
				Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
				Ts: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6,
				Pid: 1, Tid: tid,
				Args: map[string]string{"id": ids[tid], "parent": parent},
			})
		}
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
