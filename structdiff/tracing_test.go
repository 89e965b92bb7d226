package structdiff_test

import (
	"context"
	"testing"
	"time"

	"repro/structdiff"
	"repro/structdiff/langs/exp"
)

// TestDiffContextSpans: a facade diff under WithSpans records one
// structdiff.diff span with the four truediff phases nested under it,
// joined to the trace carried on the context.
func TestDiffContextSpans(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	rec := structdiff.NewSpanRecorder()
	parent := structdiff.NewSpanContext()
	ctx := structdiff.WithTraceContext(context.Background(), parent)
	if _, err := structdiff.DiffContext(ctx, src, dst,
		structdiff.WithSchema(sch), structdiff.WithAllocator(alloc),
		structdiff.WithSpans(rec)); err != nil {
		t.Fatalf("DiffContext: %v", err)
	}

	spans := rec.Spans()
	if len(spans) != 5 {
		t.Fatalf("recorded %d spans, want 5 (structdiff.diff + 4 phases)", len(spans))
	}
	var root *structdiff.Span
	for i := range spans {
		if spans[i].Name == "structdiff.diff" {
			root = &spans[i]
		}
	}
	if root == nil {
		t.Fatal("no structdiff.diff span")
	}
	if root.Trace != parent.Trace || root.Parent != parent.Span {
		t.Errorf("root span trace/parent = %s/%s, want context's %s/%s",
			root.Trace, root.Parent, parent.Trace, parent.Span)
	}
	for _, s := range spans {
		if s.Name == "structdiff.diff" {
			continue
		}
		if s.Trace != parent.Trace || s.Parent != root.ID {
			t.Errorf("phase %s trace/parent = %s/%s, want %s/%s",
				s.Name, s.Trace, s.Parent, parent.Trace, root.ID)
		}
	}
}

// TestFacadePhaseSpansTileParent: DiffContext and ExplainContext rebuild
// their phase spans from the diff's record as four back-to-back spans in
// phase order inside the facade span.
func TestFacadePhaseSpansTileParent(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context, src, dst *structdiff.Node, opts ...structdiff.Option) error
	}{
		{"structdiff.diff", func(ctx context.Context, src, dst *structdiff.Node, opts ...structdiff.Option) error {
			_, err := structdiff.DiffContext(ctx, src, dst, opts...)
			return err
		}},
		{"structdiff.explain", func(ctx context.Context, src, dst *structdiff.Node, opts ...structdiff.Option) error {
			_, err := structdiff.ExplainContext(ctx, src, dst, opts...)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, dst, sch, alloc := buildPair(t)
			rec := structdiff.NewSpanRecorder()
			if err := tc.run(context.Background(), src, dst,
				structdiff.WithSchema(sch), structdiff.WithAllocator(alloc), structdiff.WithSpans(rec)); err != nil {
				t.Fatal(err)
			}
			spans := rec.Spans()
			if len(spans) != 1+structdiff.NumPhases {
				t.Fatalf("recorded %d spans, want %d", len(spans), 1+structdiff.NumPhases)
			}
			// Phase spans complete in order, before the facade span.
			root, ph := spans[len(spans)-1], spans[:structdiff.NumPhases]
			if root.Name != tc.name {
				t.Fatalf("last span = %s, want %s", root.Name, tc.name)
			}
			var total time.Duration
			for p, s := range ph {
				if want := "truediff." + structdiff.Phase(p).String(); s.Name != want || s.Parent != root.ID {
					t.Errorf("phase span %d = %s under %s, want %s under %s", p, s.Name, s.Parent, want, root.ID)
				}
				if s.Duration() <= 0 {
					t.Errorf("%s has duration %v", s.Name, s.Duration())
				}
				if p > 0 && !s.Start.Equal(ph[p-1].Stop) {
					t.Errorf("%s starts %v after %s ends", s.Name, s.Start.Sub(ph[p-1].Stop), ph[p-1].Name)
				}
				total += s.Duration()
			}
			if ph[0].Start.Before(root.Start) || ph[len(ph)-1].Stop.After(root.Stop) || total > root.Duration() {
				t.Errorf("phases [%v, %v] spill out of %s [%v, %v]",
					ph[0].Start, ph[len(ph)-1].Stop, root.Name, root.Start, root.Stop)
			}
		})
	}
}

// TestDiffContextNoSpansNoTrace: without WithSpans the facade records
// nothing — the off path stays untraced.
func TestDiffContextNoSpansNoTrace(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	if _, err := structdiff.DiffContext(context.Background(), src, dst,
		structdiff.WithSchema(sch), structdiff.WithAllocator(alloc)); err != nil {
		t.Fatalf("DiffContext: %v", err)
	}
}

// TestEngineFacadeObservability: the facade's WithSpans/WithLogger/WithSLO
// options reach the engine.
func TestEngineFacadeObservability(t *testing.T) {
	g := exp.NewGen(7)
	before := g.Tree(40)
	after := g.MutateN(before, 2)
	rec := structdiff.NewSpanRecorder()
	e, err := structdiff.NewEngine(g.Schema(),
		structdiff.WithWorkers(1), structdiff.WithSpans(rec))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	res, err := e.DiffBatch(context.Background(), []structdiff.Pair{
		{Source: before, Target: after, Label: "facade"},
	})
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	if res[0].Err != nil {
		t.Fatalf("pair failed: %v", res[0].Err)
	}
	if got := len(rec.Spans()); got != 5 {
		t.Fatalf("engine recorded %d spans, want 5", got)
	}
	if snap := e.Snapshot(); snap.SLO.Requests != 1 {
		t.Errorf("SLO window counted %d requests, want 1", snap.SLO.Requests)
	}
}
