package main

import (
	"context"
	"time"

	"repro/internal/engine"
	"repro/internal/quality"
	"repro/internal/sig"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/truechange"
)

// batch is one caller feeding the batch engine consecutive small windows of
// a heavy-edit history. The trees are the generator's pre-hashed trees, so
// there is no parsing and no wire: dense edits grow the share of the
// differ's select and emit phases, and the engine's scheduling, intern
// store, scratch pool and memo do the rest. A parse or hashing change should
// show no change here; a change to the truediff phases shows its largest
// effect here.
type batch struct {
	in      *treeHistory
	p       params
	workers int
}

func (w *batch) pass(m *meter, pass int) error {
	// Set-up: a fresh engine that has seen the repository's first versions.
	start := time.Now()
	eng := engine.New(w.in.sch, engine.Config{Workers: w.workers})
	defer eng.Close()
	for _, t := range w.in.initial {
		eng.Ingest(t, nil)
	}
	m.setup(time.Since(start))

	ctx := context.Background()
	base := eng.Snapshot()
	for lo := 0; lo < len(w.in.changes); lo += w.p.window {
		window := w.in.changes[lo:min(lo+w.p.window, len(w.in.changes))]
		tr := m.beginOp(m.traceNext())

		a0 := allocBytes()
		t0 := time.Now()
		pairs := make([]engine.Pair, len(window))
		for i, ch := range window {
			pairs[i] = engine.Pair{Source: eng.Ingest(ch.before, nil), Target: eng.Ingest(ch.after, nil)}
		}
		t1 := time.Now()
		results, err := eng.DiffBatch(ctx, pairs)
		t2 := time.Now()
		m.addTimed(t2.Sub(t0), allocBytes()-a0)

		o := op{wall: t2.Sub(t0), changes: len(window), failed: err != nil, traced: tr != nil}
		for _, r := range results {
			if r.Err != nil {
				o.failed = true
				continue
			}
			o.nodes += r.Stats.SourceSize + r.Stats.TargetSize
			o.edits += r.Result.Script.EditCount()
		}
		m.record(o)
		if o.failed {
			continue
		}
		if tr != nil {
			tr.span(0, "engine.ingest", t0, t1)
			tr.span(0, "engine.batch", t1, t2)
			tr.end(t0, t2)
			for _, r := range results {
				st := r.Stats
				addDiffLayers(m, "engine.diff_other", st.Phases, st.Wall, r.Result.Script, st.SourceSize, st.TargetSize)
			}
		}

		// Oracle, outside the timed region.
		for i, r := range results {
			if !checkScript(w.in.sch, r.Result.Script, r.Result.Patched, window[i].after) {
				m.mismatch()
				break
			}
		}
	}
	if m.trace {
		addEngineLayers(m, eng.Snapshot().Sub(base))
	}
	m.heapPass(pass)
	return nil
}

func (w *batch) targets() []*tree.Node { return w.in.sampleTargets(32) }

// checkScript is the oracle for the tree workloads: the script is
// well-typed, and the patched tree equals the generator's target, both
// literally and by content digest.
func checkScript(sch *sig.Schema, s *truechange.Script, patched, target *tree.Node) bool {
	return truechange.WellTyped(sch, s) == nil && patched != nil &&
		tree.LiterallyEquivalent(patched, target) && patched.ExactHash() == target.ExactHash()
}

// addDiffLayers accumulates one diff's per-layer figures: its four phases,
// the rest of its wall under other, its reuse, and its sample for the
// linearity check.
func addDiffLayers(m *meter, other string, ph telemetry.PhaseTimes, wall time.Duration, s *truechange.Script, src, dst int) {
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		m.addLayer("phase."+p.String(), ph[p].Seconds())
	}
	m.addLayer(other, (wall - ph.Total()).Seconds())
	m.addLayer("diff_wall", wall.Seconds())
	m.addLayer("diff_nodes", float64(src+dst))
	m.addDiff(src+dst, wall)
	if s != nil {
		q := quality.FromScript(s, src, dst)
		m.addLayer("reused_nodes", q.ReuseRatio*float64(dst))
		m.addLayer("target_nodes", float64(dst))
	}
}

// addEngineLayers accumulates an engine's counters over one pass.
func addEngineLayers(m *meter, s engine.Snapshot) {
	m.addLayer("engine.diff_wall", s.DiffWall.Seconds())
	m.addLayer("engine.capacity", s.WorkerCapacity.Seconds())
	m.addLayer("engine.pool_gets", float64(s.PoolGets))
	m.addLayer("engine.pool_misses", float64(s.PoolMisses))
	m.addLayer("engine.store_hits", float64(s.StoreHits))
	m.addLayer("engine.store_misses", float64(s.StoreMisses))
	m.addLayer("engine.memo_hits", float64(s.MemoHits))
	m.addLayer("engine.memo_misses", float64(s.MemoMisses))
}
