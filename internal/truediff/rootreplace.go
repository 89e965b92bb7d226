package truediff

import (
	"fmt"

	"repro/internal/derrors"
	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/uri"
)

// RootReplace synthesizes the degradation script of the resilience layer:
// the source tree is detached from the pre-defined root and unloaded node
// by node, the target tree is loaded bottom-up with fresh URIs and attached
// in its place. No subtree is reused, so the script is maximally verbose
// (SourceSize + TargetSize + 2 edit operations) — but it is well-typed by
// construction for any pair of schema-conforming trees: it is exactly the
// replacement case of the step-4 traversal (§4.4) with an empty assignment,
// which Theorem 3.6 covers. The engine falls back to it when a diff
// panics, exceeds its deadline, or emits an ill-typed script, so callers
// still receive a script that patches cleanly.
//
// The contract on alloc matches Diff: it must dominate every URI in
// source, and nil derives an allocator by reserving source's URIs.
func (d *Differ) RootReplace(source, target *tree.Node, alloc *uri.Allocator) (*Result, error) {
	if source == nil || target == nil {
		return nil, fmt.Errorf("truediff: %w", derrors.ErrNilTree)
	}
	if alloc == nil {
		alloc = uri.NewAllocator()
		alloc.Reserve(source.MaxURI())
	}
	if err := d.checkInput(source, nil); err != nil {
		return nil, err
	}
	if err := d.checkInput(target, nil); err != nil {
		return nil, err
	}
	r := &run{sch: d.sch, opts: d.opts, s: NewScratch(), alloc: alloc}
	if d.opts.Explain != nil {
		r.explain = newExplainState()
		r.explain.forced = ReasonRootReplace
	}
	detach := truechange.Detach{Node: ref(source), Link: sig.RootLink, Parent: truechange.RootRef}
	r.s.buf.Add(detach)
	if r.explain != nil {
		r.explain.record(detach, EditProvenance{})
	}
	r.unloadUnassigned(source) // empty assignment: unloads every node
	t := r.loadUnassigned(target)
	attach := truechange.Attach{Node: ref(t), Link: sig.RootLink, Parent: truechange.RootRef}
	r.s.buf.Add(attach)
	if r.explain != nil {
		r.explain.record(attach, EditProvenance{})
		d.opts.Explain.ExplainDiff(r.explain.finish(source, target))
	}
	return &Result{Script: r.s.buf.Script(), Patched: t}, nil
}
