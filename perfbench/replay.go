package main

import (
	"fmt"
	"time"

	"repro/internal/mtree"
	"repro/internal/pylang"
	"repro/internal/sig"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/truediff"
	"repro/internal/uri"
)

// replay is one caller replaying a long history of large Python files, the
// way an incremental analysis consumes a repository: parse the new version,
// diff it against the previous one, type-check the script, and patch a
// long-lived mirror of the file. O(tree) work (parsing, hashing, the
// differ's prepare and shares phases) dominates; select, emit, check and
// patch are small. It is the only workload that keeps long-lived state
// (the mirrors) beside diffing.
type replay struct {
	in   *textHistory
	sch  *sig.Schema
	d    *truediff.Differ
	last []*tree.Node // the files' trees at the end of the latest pass
}

func newReplay(in *textHistory) *replay {
	sch := pylang.Schema()
	return &replay{in: in, sch: sch, d: truediff.New(sch)}
}

func (w *replay) pass(m *meter, pass int) error {
	// Set-up: parse every file's first version and build its mirror.
	start := time.Now()
	f := pylang.NewFactoryWith(w.sch, uri.NewAllocator())
	prev := make([]*tree.Node, len(w.in.initial))
	mirrors := make([]*mtree.MTree, len(w.in.initial))
	for i, src := range w.in.initial {
		t, err := pylang.Parse(src, f)
		if err != nil {
			return fmt.Errorf("replay set-up: parse file %d: %w", i, err)
		}
		if mirrors[i], err = mtree.FromTree(w.sch, t); err != nil {
			return fmt.Errorf("replay set-up: mirror file %d: %w", i, err)
		}
		prev[i] = t
	}
	m.setup(time.Since(start))

	scratch := truediff.NewScratch()
	latest := append([]string(nil), w.in.initial...)
	rollbacks := mtree.Rollbacks()
	for _, ch := range w.in.changes {
		latest[ch.file] = ch.text
		srcNodes := prev[ch.file].Size()
		tr := m.beginOp(m.traceNext())

		a0 := allocBytes()
		t0 := time.Now()
		cur, err := pylang.Parse(ch.text, f)
		t1 := time.Now()
		var res *truediff.Result
		if err == nil {
			res, err = w.d.DiffScratch(prev[ch.file], cur, f.Alloc(), scratch)
		}
		t2 := time.Now()
		if err == nil {
			err = truechange.WellTyped(w.sch, res.Script)
		}
		t3 := time.Now()
		if err == nil {
			err = mirrors[ch.file].Patch(res.Script)
		}
		t4 := time.Now()
		if err == nil {
			prev[ch.file] = res.Patched
		}
		t5 := time.Now()
		m.addTimed(t5.Sub(t0), allocBytes()-a0)

		o := op{wall: t5.Sub(t0), changes: 1, failed: err != nil, traced: tr != nil}
		if err == nil {
			o.nodes = srcNodes + cur.Size()
			o.edits = res.Script.EditCount()
		}
		m.record(o)
		if err != nil {
			continue
		}
		if tr != nil {
			tr.span(0, "pylang.parse", t0, t1)
			diff := tr.span(0, "truediff.diff", t1, t2)
			tr.phases(diff, scratch.PhaseTimes())
			tr.span(0, "truechange.welltyped", t2, t3)
			tr.span(0, "mtree.patch", t3, t4)
			tr.end(t0, t5)
			m.addLayer("parse_nodes", float64(cur.Size()))
			m.addLayer("edits_applied", float64(res.Script.Len()))
			addDiffLayers(m, "truediff.other", scratch.PhaseTimes(), t2.Sub(t1), res.Script, srcNodes, cur.Size())
		}

		// Oracle, outside the timed region: the mirror equals the new
		// version, and so does the patched tree.
		if !mirrors[ch.file].EqualTree(res.Patched) || !tree.LiterallyEquivalent(res.Patched, cur) {
			m.mismatch()
		}
	}
	m.addLayer("rollbacks", float64(mtree.Rollbacks()-rollbacks))

	// Oracle at the end of the pass: every file renders back to the
	// generator's text of its latest version.
	for i, t := range prev {
		if pylang.Render(t) != latest[i] {
			m.finalMismatch()
		}
	}
	m.heapPass(pass)
	w.last = prev
	return nil
}

func (w *replay) targets() []*tree.Node { return w.last }

// phases records the four truediff phases as synth children of parent.
func (o *opTrace) phases(parent int64, pt telemetry.PhaseTimes) {
	if o == nil {
		return
	}
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		o.rec.addSynth(o.op, parent, "truediff."+p.String(), pt[p])
	}
}
