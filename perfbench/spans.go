package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share ID;
// Parent names the enclosing span's Name ("" for a root). Times are
// nanoseconds since the recorder started.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Tag    string `json:"tag,omitempty"`
	// Split is the modelled stage breakdown a request's response carried.
	Split *modelSplit `json:"split,omitempty"`
}

// modelSplit is a response's modelled stage times in model seconds and
// the client sequence number it echoed (unique per connection, the span's
// Tag).
type modelSplit struct {
	Seq                           uint64
	Device, Uplink, Queue, Server float64
}

// children lays the modelled stages end to end from the span's start,
// each scaled to wall time: the part of the request the processes spent
// sleeping on the cost model. What they leave uncovered is software.
func (s *span) children(timeScale float64) []span {
	if s.Split == nil {
		return nil
	}
	var out []span
	t := s.Start
	for _, sec := range []float64{s.Split.Device, s.Split.Uplink, s.Split.Queue, s.Split.Server} {
		d := int64(sec * timeScale * float64(time.Second))
		out = append(out, span{ID: s.ID, Parent: s.Name, Start: t, End: t + d})
		t += d
	}
	return out
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil *recorder is a
// valid no-op, which is how the untraced runs call the same code paths.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// since converts a wall instant to the recorder's clock.
func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// add records one finished span.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn inside a root span called name and returns fn's error.
func (r *recorder) timed(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	if r != nil {
		r.add(span{Name: name, Start: r.since(start), End: r.since(end)})
	}
	return end.Sub(start), err
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// len returns the number of spans recorded so far.
func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write dumps every span as JSON lines to path.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap one another or stick out of the
// parent; only their union inside the parent counts.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - time.Duration(covered)
}
