package truediff

import (
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/sig"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/uri"
)

// TestTracerOrdering pins the per-diff phase contract: every diff reports
// each of the four phases to Options.OnPhase exactly once, in Phase order,
// and nothing else; and the scratch's record holds all four durations,
// bounded by the diff's wall time as the caller measures it.
func TestTracerOrdering(t *testing.T) {
	var seen []telemetry.Phase
	d := NewWithOptions(exp.Schema(), Options{OnPhase: func(p telemetry.Phase) { seen = append(seen, p) }})
	s := NewScratch()

	const diffs = 5
	for i := 0; i < diffs; i++ {
		g := exp.NewGen(int64(400 + i))
		before := g.Tree(60 + 10*i)
		after := g.MutateN(before, 1+i)
		alloc := uri.NewAllocator()
		src := tree.Clone(before, alloc, tree.SHA256)
		dst := tree.Clone(after, alloc, tree.SHA256)

		start := len(seen)
		began := time.Now()
		if _, err := d.DiffScratch(src, dst, alloc, s); err != nil {
			t.Fatalf("diff %d: %v", i, err)
		}
		wall := time.Since(began)
		span := seen[start:]
		if len(span) != telemetry.NumPhases {
			t.Fatalf("diff %d reported %d phases, want %d: %v", i, len(span), telemetry.NumPhases, span)
		}
		for p := 0; p < telemetry.NumPhases; p++ {
			if span[p] != telemetry.Phase(p) {
				t.Errorf("diff %d phase event %d = %v, want %v", i, p, span[p], telemetry.Phase(p))
			}
		}

		// The record holds every phase, and the phases tile at most the
		// wall time around the call.
		times := s.PhaseTimes()
		for p := 0; p < telemetry.NumPhases; p++ {
			if times[p] <= 0 {
				t.Errorf("diff %d phase %v: record holds %v", i, telemetry.Phase(p), times[p])
			}
		}
		if times.Total() > wall {
			t.Errorf("diff %d: phase total %v exceeds wall %v", i, times.Total(), wall)
		}
	}
	if want := diffs * telemetry.NumPhases; len(seen) != want {
		t.Fatalf("total phase events = %d, want %d", len(seen), want)
	}
}

// TestTracerSilentOnFailedValidation: diffs rejected before the algorithm
// runs (nil trees, schema mismatches) report no phase and leave the
// scratch's record empty, even when an earlier diff through the same
// scratch had filled it.
func TestTracerSilentOnFailedValidation(t *testing.T) {
	var seen []telemetry.Phase
	onPhase := func(p telemetry.Phase) { seen = append(seen, p) }
	b := exp.NewBuilder()
	n := b.MustN(exp.Num, int64(1))
	s := NewScratch()
	if _, err := New(exp.Schema()).DiffScratch(n, b.MustN(exp.Num, int64(2)), b.Alloc(), s); err != nil {
		t.Fatal(err)
	}
	if s.PhaseTimes().Total() == 0 {
		t.Fatal("the successful diff filled no phase record")
	}

	// Nil tree.
	d := NewWithOptions(exp.Schema(), Options{OnPhase: onPhase})
	if _, err := d.DiffScratch(nil, n, b.Alloc(), s); err == nil {
		t.Fatal("nil-source diff succeeded")
	}
	// Schema mismatch: a differ over an empty schema rejects exp trees.
	d2 := NewWithOptions(sig.NewSchema("empty"), Options{OnPhase: onPhase})
	if _, err := d2.DiffScratch(n, n, b.Alloc(), s); err == nil {
		t.Fatal("schema-mismatch diff succeeded")
	}
	if len(seen) != 0 {
		t.Fatalf("failed diffs reported %d phases, want 0: %v", len(seen), seen)
	}
	if s.PhaseTimes() != (telemetry.PhaseTimes{}) {
		t.Fatalf("failed diffs left a phase record %v", s.PhaseTimes())
	}
}

// TestScratchPhaseTimesReset: Reset zeroes the recorded phases, and each
// DiffScratch run starts from zero rather than accumulating.
func TestScratchPhaseTimesReset(t *testing.T) {
	d := New(exp.Schema())
	s := NewScratch()
	g := exp.NewGen(7)
	before := g.Tree(200)
	after := g.MutateN(before, 3)
	alloc := uri.NewAllocator()
	src := tree.Clone(before, alloc, tree.SHA256)
	dst := tree.Clone(after, alloc, tree.SHA256)

	if _, err := d.DiffScratch(src, dst, alloc, s); err != nil {
		t.Fatal(err)
	}
	if s.PhaseTimes().Total() == 0 {
		t.Fatal("no phase durations recorded")
	}
	s.Reset()
	if s.PhaseTimes() != (telemetry.PhaseTimes{}) {
		t.Fatalf("Reset left phase times %v", s.PhaseTimes())
	}
}
