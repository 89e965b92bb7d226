package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/telemetry"
)

// TestEngineSpans: with Config.Spans set, every pair yields one
// "engine.diff" span parented on the pair's trace context plus the four
// phase spans parented on the engine span, all sharing the pair's trace ID.
func TestEngineSpans(t *testing.T) {
	tps := makePairs(t, 3)
	pairs := enginePairs(tps)
	traces := make([]telemetry.SpanContext, len(pairs))
	for i := range pairs {
		traces[i] = telemetry.NewSpanContext()
		pairs[i].Trace = traces[i]
		pairs[i].Label = "pair-" + string(rune('a'+i))
	}
	rec := telemetry.NewSpanRecorder()
	var events eventLog
	e := New(exp.Schema(), Config{Workers: 2, Spans: rec, Observer: events.add})
	if _, err := e.DiffBatch(context.Background(), pairs); err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}

	spans := rec.Spans()
	byTrace := make(map[telemetry.TraceID][]telemetry.Span)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	for i, tc := range traces {
		got := byTrace[tc.Trace]
		if len(got) != 5 {
			t.Fatalf("pair %d: %d spans in its trace, want 5 (engine.diff + 4 phases)", i, len(got))
		}
		var eng *telemetry.Span
		phases := map[string]telemetry.Span{}
		for j := range got {
			if got[j].Name == "engine.diff" {
				eng = &got[j]
			} else {
				phases[got[j].Name] = got[j]
			}
		}
		if eng == nil {
			t.Fatalf("pair %d: no engine.diff span", i)
		}
		if eng.Parent != tc.Span {
			t.Errorf("pair %d: engine.diff parent %s, want request span %s", i, eng.Parent, tc.Span)
		}
		for _, name := range []string{"truediff.prepare", "truediff.shares", "truediff.select", "truediff.emit"} {
			ph, ok := phases[name]
			if !ok {
				t.Errorf("pair %d: missing phase span %s", i, name)
				continue
			}
			if ph.Parent != eng.ID {
				t.Errorf("pair %d: %s parented on %s, want engine span %s", i, name, ph.Parent, eng.ID)
			}
		}
	}

	// Observer events carry the engine span's context, so trace records
	// correlate with the spans.
	for _, ev := range events.all() {
		if !ev.Trace.Valid() {
			t.Fatalf("event %q has no trace context", ev.Label)
		}
		rec := ev.TraceRecord()
		if rec.TraceID == "" || rec.SpanID == "" {
			t.Fatalf("trace record for %q missing correlation IDs: %+v", ev.Label, rec)
		}
	}
}

// TestEnginePhaseSpansTileParent: the phase spans rebuilt from a diff's
// record are four back-to-back spans in phase order, inside their
// engine.diff span, each exactly as long as DiffStats.Phases says.
func TestEnginePhaseSpansTileParent(t *testing.T) {
	rec := telemetry.NewSpanRecorder()
	var events eventLog
	e := New(exp.Schema(), Config{Workers: 2, Spans: rec, Observer: events.add})
	if _, err := e.DiffBatch(context.Background(), enginePairs(makePairs(t, 4))); err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	children := map[telemetry.SpanID][]telemetry.Span{}
	parents := map[telemetry.SpanID]telemetry.Span{}
	for _, s := range rec.Spans() {
		if s.Name == "engine.diff" {
			parents[s.ID] = s
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	evs := events.all()
	if len(evs) != 4 || len(parents) != 4 {
		t.Fatalf("%d events, %d engine.diff spans, want 4 each", len(evs), len(parents))
	}
	for _, ev := range evs {
		parent, ok := parents[ev.Trace.Span]
		if !ok {
			t.Fatalf("event %+v has no engine.diff span", ev.Trace)
		}
		ph := children[parent.ID]
		if len(ph) != telemetry.NumPhases {
			t.Fatalf("engine.diff span has %d phase children, want %d", len(ph), telemetry.NumPhases)
		}
		sort.Slice(ph, func(i, j int) bool { return ph[i].Start.Before(ph[j].Start) })
		for p, s := range ph {
			if want := "truediff." + telemetry.Phase(p).String(); s.Name != want {
				t.Errorf("phase span %d = %s, want %s", p, s.Name, want)
			}
			if d := s.Duration(); d != ev.Stats.Phases[p] {
				t.Errorf("%s lasts %v, DiffStats.Phases says %v", s.Name, d, ev.Stats.Phases[p])
			}
			if p > 0 && !s.Start.Equal(ph[p-1].Stop) {
				t.Errorf("%s starts %v after %s ends", s.Name, s.Start.Sub(ph[p-1].Stop), ph[p-1].Name)
			}
		}
		if ph[0].Start.Before(parent.Start) || ph[len(ph)-1].Stop.After(parent.Stop) {
			t.Errorf("phases [%v, %v] spill out of engine.diff [%v, %v]",
				ph[0].Start, ph[len(ph)-1].Stop, parent.Start, parent.Stop)
		}
	}
}

// TestEngineSpansOffNoTrace: without a sink no spans appear and events
// still carry the pair's (possibly invalid) context unchanged.
func TestEngineSpansOffNoTrace(t *testing.T) {
	tps := makePairs(t, 1)
	pairs := enginePairs(tps)
	var events eventLog
	e := New(exp.Schema(), Config{Observer: events.add})
	if _, err := e.DiffBatch(context.Background(), pairs); err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	evs := events.all()
	if len(evs) != 1 || evs[0].Trace.Valid() {
		t.Fatalf("events = %+v, want one with zero trace", evs)
	}
	if rec := evs[0].TraceRecord(); rec.TraceID != "" || rec.SpanID != "" {
		t.Fatalf("trace record carries IDs without tracing: %+v", rec)
	}
}

// TestEngineSLOAccounting: the engine's SLO window counts every diff,
// errors included, and surfaces through Snapshot and GatherMetrics.
func TestEngineSLOAccounting(t *testing.T) {
	tps := makePairs(t, 4)
	pairs := enginePairs(tps)
	pairs = append(pairs, Pair{Source: nil, Target: nil}) // fails: nil trees
	e := New(exp.Schema(), Config{Workers: 2})
	if _, err := e.DiffBatch(context.Background(), pairs); err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	slo := e.SLOSnapshot()
	if slo.Requests != 5 || slo.Errors != 1 {
		t.Fatalf("SLO req/err = %d/%d, want 5/1", slo.Requests, slo.Errors)
	}
	snap := e.Snapshot()
	if snap.SLO.Requests != slo.Requests {
		t.Errorf("Snapshot.SLO.Requests = %d, want %d", snap.SLO.Requests, slo.Requests)
	}
	if !strings.Contains(snap.String(), "slo[") {
		t.Errorf("Snapshot.String() misses the SLO line:\n%s", snap.String())
	}
	found := false
	for _, m := range e.GatherMetrics() {
		if m.Name == "structdiff_slo_window_requests" {
			found = true
			if m.Value != 5 {
				t.Errorf("structdiff_slo_window_requests = %v, want 5", m.Value)
			}
		}
	}
	if !found {
		t.Error("structdiff_slo_window_requests not gathered")
	}
}

// TestEngineStructuredLogging: failures and slow diffs emit slog records
// carrying pair and trace correlation.
func TestEngineStructuredLogging(t *testing.T) {
	tps := makePairs(t, 1)
	pairs := enginePairs(tps)
	tc := telemetry.NewSpanContext()
	pairs[0].Trace = tc
	pairs[0].Label = "slow-one"
	pairs = append(pairs, Pair{Source: nil, Target: nil, Label: "broken", Trace: tc})

	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	e := New(exp.Schema(), Config{
		Workers:           1,
		Logger:            logger,
		SlowDiffThreshold: time.Nanosecond, // every real diff is slow
	})
	if _, err := e.DiffBatch(context.Background(), pairs); err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}

	var sawSlow, sawFailed bool
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("log output is not JSON lines: %v", err)
		}
		switch rec["msg"] {
		case "slow diff":
			sawSlow = true
			if rec["pair"] != "slow-one" {
				t.Errorf("slow record pair = %v", rec["pair"])
			}
			if rec["trace_id"] != tc.Trace.String() {
				t.Errorf("slow record trace_id = %v, want %v", rec["trace_id"], tc.Trace)
			}
			if rec["level"] != "WARN" {
				t.Errorf("slow record level = %v", rec["level"])
			}
		case "diff failed":
			sawFailed = true
			if rec["level"] != "ERROR" || rec["err"] == "" {
				t.Errorf("failure record = %v", rec)
			}
		}
	}
	if !sawSlow || !sawFailed {
		t.Fatalf("sawSlow=%v sawFailed=%v, want both", sawSlow, sawFailed)
	}
}
