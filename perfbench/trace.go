package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op, the ID of
// the op's root span. Synth spans carry a duration a layer reported
// (truediff phases, the engine's diff wall) rather than one the benchmark
// timed; they are laid out back to back from their parent's start when
// written.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Synth  bool   `json:"synth,omitempty"`
}

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) id() int64 { return r.ids.Add(1) }

// add records a span the benchmark timed itself.
func (r *recorder) add(opID, id, parent int64, name string, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Op: opID, ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.base).Nanoseconds(), Dur: end.Sub(start).Nanoseconds()})
	r.mu.Unlock()
}

// addSynth records a span whose duration a layer reported, returning its id.
func (r *recorder) addSynth(opID, parent int64, name string, d time.Duration) int64 {
	id := r.id()
	r.mu.Lock()
	r.spans = append(r.spans, span{Op: opID, ID: id, Parent: parent, Name: name, Dur: d.Nanoseconds(), Synth: true})
	r.mu.Unlock()
	return id
}

// selfTimes sums, per span name, the self time (duration minus the
// children's durations) and the total duration, and over the root spans
// the op wall. Children of a span never overlap (every layer call in an op
// is sequential), so the self times of all spans of an op add up to the
// op's wall exactly.
func (r *recorder) selfTimes() (self, total map[string]time.Duration, opWall time.Duration, ops int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.Dur
		}
	}
	self, total = make(map[string]time.Duration), make(map[string]time.Duration)
	for _, s := range r.spans {
		self[s.Name] += time.Duration(s.Dur - children[s.ID])
		total[s.Name] += time.Duration(s.Dur)
		if s.Parent == 0 {
			opWall += time.Duration(s.Dur)
			ops++
		}
	}
	return self, total, opWall, ops
}

// write stores the spans as JSON lines, placing synth spans back to back
// from their parent's start.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := make(map[int64]int64, len(r.spans))
	next := make(map[int64]int64) // parent id -> start of its next synth child
	for _, s := range r.spans {
		start[s.ID] = s.Start
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if s.Synth {
			at, ok := next[s.Parent]
			if !ok {
				at = start[s.Parent]
			}
			s.Start = at
			start[s.ID] = at
			next[s.Parent] = at + s.Dur
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opTrace records the spans of one traced op. A nil *opTrace, the untraced
// case, records nothing, so workloads time every op the same way and only
// the recording differs.
type opTrace struct {
	rec *recorder
	op  int64
}

func (m *meter) beginOp(traced bool) *opTrace {
	if !traced {
		return nil
	}
	return &opTrace{rec: m.rec, op: m.rec.id()}
}

// span records a child of parent (0 for a child of the op's root) and
// returns its id.
func (o *opTrace) span(parent int64, name string, start, end time.Time) int64 {
	if o == nil {
		return 0
	}
	id := o.rec.id()
	o.add(id, parent, name, start, end)
	return id
}

// add records a span under an id drawn beforehand, for a span whose
// children must know their parent before it ends.
func (o *opTrace) add(id, parent int64, name string, start, end time.Time) {
	if parent == 0 {
		parent = o.op
	}
	o.rec.add(o.op, id, parent, name, start, end)
}

// end records the op's root span.
func (o *opTrace) end(start, end time.Time) {
	if o != nil {
		o.rec.add(o.op, o.op, 0, "op", start, end)
	}
}
