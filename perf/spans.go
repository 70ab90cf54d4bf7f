package main

import (
	"encoding/json"
	"os"
	"time"
)

// tracer records a span around each call the benchmark makes into a layer
// of the program. A nil tracer records nothing and costs nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

// span is one timed call: Start is relative to the tracer's creation.
type span struct {
	Name  string `json:"name"`
	Arg   string `json:"arg,omitempty"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

var noop = func() {}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name, arg string) func() {
	if t == nil {
		return noop
	}
	start := time.Now()
	return func() {
		t.spans = append(t.spans, span{Name: name, Arg: arg, Start: start.Sub(t.t0).Nanoseconds(), Dur: time.Since(start).Nanoseconds()})
	}
}

// chromeEvent is one complete event of the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev); times are in microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace writes spans grouped by process: spans[i] came from
// process i (0 is the parent) whose clock started offsetNS[i] after the
// run's.
func writeChromeTrace(path string, spans [][]span, offsetNS []int64) error {
	var evs []chromeEvent
	for pid, ss := range spans {
		for _, s := range ss {
			ev := chromeEvent{Name: s.Name, Ph: "X", Ts: float64(offsetNS[pid]+s.Start) / 1e3, Dur: float64(s.Dur) / 1e3, Pid: pid, Tid: 1}
			if s.Arg != "" {
				ev.Args = map[string]string{"arg": s.Arg}
			}
			evs = append(evs, ev)
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
