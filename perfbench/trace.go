package main

// Spans recorded by the benchmark itself, around its calls into each
// layer's public functions. The program's own obs tracers stay off.
// Spans are kept in memory and written out as JSON lines when the run
// ends.
//
// An op's live client call is the root span. The same step is then
// replayed one layer down after the measured phases (mux calls to the
// manager and the holder, Core.Resolve, Cache.Fetch, store reads, raw
// transport pings), each replay a child of the layer above it for that
// op. Replays run one after another rather than nested in time, so a
// layer's self time is its duration minus the summed durations of its
// children: the time the layer spends on the step beyond what the
// layer below it needs for the same step.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Op     int           `json:"op"`     // op the span belongs to; 0 for layer probes
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the trace epoch
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer collects spans. A nil *tracer records nothing, so untraced
// code paths pay one nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) record(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.mu.Unlock()
	return id
}

// timed runs fn as a span and returns the span's ID.
func (t *tracer) timed(name string, op, parent int, fn func() error) (int, error) {
	start := time.Now()
	err := fn()
	return t.record(name, op, parent, start, time.Now()), err
}

// timedNoErr is timed for calls that cannot fail.
func (t *tracer) timedNoErr(name string, op, parent int, fn func()) int {
	start := time.Now()
	fn()
	return t.record(name, op, parent, start, time.Now())
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations groups span durations by span name.
func durations(spans []span) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur())
	}
	return out
}

// selfTimes groups each span's self time by span name: its duration
// minus the summed durations of its direct children, floored at zero
// (a replayed child can outlast the live call it stands under).
func selfTimes(spans []span) map[string][]time.Duration {
	children := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		self := s.dur() - children[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], self)
	}
	return out
}

// writeSpans writes spans as JSON lines to dir/name.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
