package structdiff

import (
	"context"
	"fmt"

	"repro/internal/merge"
	"repro/internal/telemetry"
)

// Three-way merge: given an ancestor tree and two divergent descendants,
// Merge diffs ancestor→ours and ancestor→theirs and composes the two edit
// scripts into one well-typed script over the ancestor. Conflict detection
// is derived from the truechange linear type system — two changes conflict
// exactly when their typing claims on the ancestor intersect (same slot
// emptied, same node updated, edits inside a deleted subtree) — never from
// tree heuristics. See docs/MERGE.md for the algorithm and the conflict
// taxonomy.

// MergePolicy selects what happens to conflicting changes.
type MergePolicy = merge.Policy

const (
	// MergePolicyFail reports conflicts as a *MergeConflictError
	// (ErrMergeConflict) and merges nothing.
	MergePolicyFail MergePolicy = merge.PolicyFail
	// MergePolicyOurs resolves every conflict by keeping ours' change.
	MergePolicyOurs MergePolicy = merge.PolicyOurs
	// MergePolicyTheirs resolves every conflict by keeping theirs' change.
	MergePolicyTheirs MergePolicy = merge.PolicyTheirs
)

// ParseMergePolicy parses "fail", "ours", or "theirs" (CLI flag values).
func ParseMergePolicy(s string) (MergePolicy, error) { return merge.ParsePolicy(s) }

// MergeConflictKind classifies a conflict by the contended typing resource.
type MergeConflictKind = merge.ConflictKind

const (
	// MergeConflictSlot: both sides empty and refill the same child slot.
	MergeConflictSlot MergeConflictKind = merge.ConflictSlot
	// MergeConflictUpdateUpdate: both sides rewrite the same node's
	// literals.
	MergeConflictUpdateUpdate MergeConflictKind = merge.ConflictUpdateUpdate
	// MergeConflictUpdateDelete: one side updates a node the other
	// deletes.
	MergeConflictUpdateDelete MergeConflictKind = merge.ConflictUpdateDelete
	// MergeConflictDeleteEdit: one side edits a slot inside a subtree the
	// other deletes.
	MergeConflictDeleteEdit MergeConflictKind = merge.ConflictDeleteEdit
	// MergeConflictDeleteDelete: both sides delete the same node with
	// different surrounding changes.
	MergeConflictDeleteDelete MergeConflictKind = merge.ConflictDeleteDelete
	// MergeConflictCycle: the two sides move subtrees under each other,
	// which would orphan both; caught by the post-merge closure check.
	MergeConflictCycle MergeConflictKind = merge.ConflictCycle
)

// MergeConflict is one contended node or slot and the two competing edit
// groups (each a well-typed excerpt of its script).
type MergeConflict = merge.Conflict

// MergeConflictError is the error returned by a conflicting merge under
// MergePolicyFail; it unwraps to ErrMergeConflict and carries the full
// conflict list.
type MergeConflictError = merge.ConflictError

// MergeStats summarizes a merge (edit and group counts per side,
// conflicts, auto-resolutions, dropped edits).
type MergeStats = merge.Stats

// MergeResult is a successful merge: the composed well-typed script over
// the ancestor, the conflicts the policy resolved (always empty under
// MergePolicyFail), and summary statistics.
type MergeResult = merge.Result

// WithMergePolicy sets the conflict resolution policy for Merge,
// MergeContext, and MergeScripts. The default is MergePolicyFail.
func WithMergePolicy(p MergePolicy) Option { return func(c *config) { c.merge = p } }

// Merge three-way merges ours and theirs against their common ancestor
// base, returning a well-typed script over base that carries both sides'
// changes. WithSchema is required; WithAllocator, the diff options, and
// WithMergePolicy apply. Under the default MergePolicyFail a conflict
// surfaces as ErrMergeConflict carrying a *MergeConflictError; under
// MergePolicyOurs/MergePolicyTheirs conflicts are resolved and recorded in
// MergeResult.Conflicts. Changes both sides made identically are
// auto-resolved to a single copy and never count as conflicts.
func Merge(base, ours, theirs *Node, opts ...Option) (*MergeResult, error) {
	return MergeContext(context.Background(), base, ours, theirs, opts...)
}

// MergeContext is the context-first form of Merge: the two underlying
// diffs poll ctx at cancellation checkpoints. A nil ctx is treated as
// context.Background().
func MergeContext(ctx context.Context, base, ours, theirs *Node, opts ...Option) (*MergeResult, error) {
	cfg := newConfig(opts)
	if cfg.sch == nil {
		return nil, fmt.Errorf("structdiff: %w", ErrNoSchema)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.spans != nil {
		// No phase children: merge.Trees runs its two diffs where the
		// facade cannot see their phase records.
		span := telemetry.StartSpan(cfg.spans, telemetry.SpanContextFromContext(ctx), "structdiff.merge")
		defer span.End()
	}
	return merge.Trees(ctx, cfg.sch, base, ours, theirs, cfg.alloc, merge.Options{
		Policy: cfg.merge,
		Diff:   cfg.diff,
	})
}

// MergeScripts three-way merges two already-computed edit scripts over the
// same base tree. Both scripts must be well-typed closed-to-closed and
// comply with base; fresh URIs the two scripts share are renamed apart.
// WithSchema is required; WithMergePolicy applies.
func MergeScripts(base *Node, ours, theirs *Script, opts ...Option) (*MergeResult, error) {
	cfg := newConfig(opts)
	if cfg.sch == nil {
		return nil, fmt.Errorf("structdiff: %w", ErrNoSchema)
	}
	return merge.Scripts(cfg.sch, base, ours, theirs, merge.Options{Policy: cfg.merge})
}

// ApplyMerge patches mt with the merged script and, if accept is non-nil,
// lets it validate the merged tree: on rejection the patch is rolled back
// exactly (Invert + the transactional patch) and the rejection error is
// returned wrapped. A nil accept commits unconditionally.
func ApplyMerge(mt *MTree, res *MergeResult, accept func(*MTree) error) error {
	return merge.Apply(mt, res, accept)
}
