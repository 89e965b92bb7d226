package proptest

// merge.go extends the property harness from two-tree diffing to three-tree
// merging: a Triple is an ancestor plus two independently mutated
// descendants, and CheckTriple runs every generated triple through the
// public structdiff merge entry points, asserting the merge-level analogues
// of the paper's conjectures — merged scripts are well-typed, disjoint
// merges commute and carry both sides' changes, conflicts are always
// reported (never silently dropped), policy resolution always succeeds, and
// merged patches roll back exactly under injected faults. Failures shrink
// through the same schema-generic shrinker (side by side) and serialize
// into a committed triple corpus under testdata/regress/merge.

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/mtree"
	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/uri"

	"repro/internal/jsonlang"

	"repro/structdiff"
)

// The merge oracle properties, named for failure reports and the property
// catalog in docs/TESTING.md.
const (
	// PropMergeWellTyped: the merged script passes the linear type check,
	// keeps the negative-before-positive ordering, and patches the ancestor
	// to a closed tree.
	PropMergeWellTyped = "merge-well-typed"
	// PropMergeBothApplied: a merge with no conflicts and no
	// auto-resolutions is equivalent to applying ours' script and then
	// theirs' script sequentially — neither side's changes are lost.
	PropMergeBothApplied = "merge-both-applied"
	// PropMergeCommutes: swapping ours and theirs yields the same merged
	// tree (clean merges) or the same conflict count (conflicted merges).
	PropMergeCommutes = "merge-commutes"
	// PropMergeConflictReported: a failing merge always surfaces
	// ErrMergeConflict carrying a non-empty, fully populated conflict list.
	PropMergeConflictReported = "merge-conflict-reported"
	// PropMergeResolves: ours/theirs policies always turn a conflicted
	// merge into a well-typed script that patches cleanly, recording every
	// resolved conflict.
	PropMergeResolves = "merge-policy-resolves"
	// PropMergeRollback: a merged patch failing mid-script under an
	// injected fault leaves the ancestor byte-identical, and a clean
	// re-patch converges.
	PropMergeRollback = "merge-fault-rollback"
)

// MergeRegressDir is the committed triple-reproducer corpus, a sibling of
// the pair corpus (a subdirectory, so LoadReproducers never confuses the
// two formats).
const MergeRegressDir = "testdata/regress/merge"

// Triple is one generated merge task: an ancestor tree and two descendants
// derived from it by independent semantic mutation chains.
type Triple struct {
	Base, Ours, Theirs *tree.Node
	// Desc names both sides' mutation kinds, e.g. "ours:rename|theirs:move".
	Desc string
	// Iter is the triple's position in the run's sequence.
	Iter int
}

// TripleFailure reports a merge property violation on one triple.
type TripleFailure struct {
	Generator string
	Property  string
	Seed      int64
	Iter      int
	Triple    Triple
	Err       error
}

func (f *TripleFailure) Error() string {
	return fmt.Sprintf("proptest: merge %s/%s failed at iter %d (seed %d, triple %q): %v",
		f.Generator, f.Property, f.Iter, f.Seed, f.Triple.Desc, f.Err)
}

func (f *TripleFailure) Unwrap() error { return f.Err }

// --- Triple generation ---------------------------------------------------

// genTriple derives a merge triple from one of the standard generators: a
// shared ancestor of roughly size nodes and two descendants produced by
// independent mutation chains over it.
func genTriple(g Generator, rng *rand.Rand, size, mutsOurs, mutsTheirs int) Triple {
	switch gen := g.(type) {
	case *PyGen:
		tg := corpus.NewTreeGen(rng, gen.f)
		base := tg.Module(size)
		ours, da := mutateChainPy(tg, base, mutsOurs)
		theirs, db := mutateChainPy(tg, base, mutsTheirs)
		return Triple{Base: base, Ours: ours, Theirs: theirs, Desc: "ours:" + da + "|theirs:" + db}
	case *JSONGen:
		base := gen.value(rng, size)
		ours, da := mutateChainJSON(rng, gen.sch, gen.alloc, base, mutsOurs)
		theirs, db := mutateChainJSON(rng, gen.sch, gen.alloc, base, mutsTheirs)
		return Triple{Base: base, Ours: ours, Theirs: theirs, Desc: "ours:" + da + "|theirs:" + db}
	case *PathoGen:
		j := gen.json
		var base *tree.Node
		var shape string
		switch rng.Intn(4) {
		case 0:
			base, shape = gen.deepChain(rng, 1+2*(size/3)), "deep-chain"
		case 1:
			base, shape = gen.wideFanout(rng, size), "wide-fanout"
		case 2:
			base, shape = gen.duplicateHeavy(rng, size), "dup-heavy"
		default:
			base, shape = gen.collisionAdjacent(rng, size), "collision"
		}
		ours, da := mutateChainJSON(rng, j.sch, j.alloc, base, mutsOurs)
		theirs, db := mutateChainJSON(rng, j.sch, j.alloc, base, mutsTheirs)
		return Triple{Base: base, Ours: ours, Theirs: theirs, Desc: shape + ":ours:" + da + "|theirs:" + db}
	}
	panic(fmt.Sprintf("proptest: generator %q cannot produce merge triples", g.Name()))
}

func mutateChainPy(tg *corpus.TreeGen, from *tree.Node, muts int) (*tree.Node, string) {
	dst, desc := from, ""
	for i := 0; i < muts; i++ {
		var kind corpus.EditKind
		dst, kind = tg.Mutate(dst)
		if desc != "" {
			desc += "+"
		}
		desc += kind.String()
	}
	return dst, desc
}

func mutateChainJSON(rng *rand.Rand, sch *sig.Schema, alloc *uri.Allocator, from *tree.Node, muts int) (*tree.Node, string) {
	dst, desc := from, ""
	for i := 0; i < muts; i++ {
		var kind string
		dst, kind = mutateJSON(rng, sch, alloc, dst)
		if desc != "" {
			desc += "+"
		}
		desc += kind
	}
	return dst, desc
}

// TripleRun drives one generator for a sequence of merge triples with the
// same determinism contract as Run: the triple sequence is a pure function
// of the config seed, and the checksum folds every tree digest plus the
// oracle's per-triple observation.
type TripleRun struct {
	Gen Generator
	Cfg Config

	rng      *rand.Rand
	checksum uint64
	triples  int
}

// NewTripleRun returns a merge-triple run of the generator under the
// config.
func NewTripleRun(gen Generator, cfg Config) *TripleRun {
	return &TripleRun{Gen: gen, Cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), checksum: 14695981039346656037}
}

// Next generates the next triple of the sequence and folds its digests
// into the run checksum.
func (r *TripleRun) Next() Triple {
	size := r.Cfg.MinNodes
	if r.Cfg.MaxNodes > r.Cfg.MinNodes {
		size += r.rng.Intn(r.Cfg.MaxNodes - r.Cfg.MinNodes)
	}
	mutsOurs := 1 + r.rng.Intn(r.Cfg.MutationsPerPair)
	mutsTheirs := 1 + r.rng.Intn(r.Cfg.MutationsPerPair)
	tr := genTriple(r.Gen, r.rng, size, mutsOurs, mutsTheirs)
	tr.Iter = r.triples
	r.triples++
	r.fold(tr.Base.ExactHash())
	r.fold(tr.Ours.ExactHash())
	r.fold(tr.Theirs.ExactHash())
	return tr
}

func (r *TripleRun) fold(s string) {
	h := fnv.New64a()
	h.Write([]byte(s))
	r.checksum = (r.checksum ^ h.Sum64()) * 1099511628211
}

// FoldResult mixes the oracle's observation of one triple — merged script
// length and conflict count — into the checksum, so replay equality covers
// the merge outcomes, not just the generated trees.
func (r *TripleRun) FoldResult(mergedEdits, conflicts int) {
	r.fold(fmt.Sprintf("merge:%d:%d", mergedEdits, conflicts))
}

// Checksum returns the determinism checksum accumulated so far.
func (r *TripleRun) Checksum() uint64 { return r.checksum }

// Triples returns how many triples the run has generated.
func (r *TripleRun) Triples() int { return r.triples }

// --- The merge oracle ----------------------------------------------------

// CheckTriple runs the full merge-property oracle on one triple through the
// public structdiff facade: it diffs ancestor→ours and ancestor→theirs over
// a shared allocator, merges the two scripts under the default fail policy,
// and checks either the clean-merge properties (well-typedness,
// both-changes-applied, commutativity, fault rollback) or the conflict
// properties (typed non-empty report, symmetric detection, policy
// resolution). salt deterministically picks the rollback fault position.
// It returns the merged script's edit count and the conflict count for
// checksum folding, and the first property violation as a PropertyError.
func CheckTriple(sch *sig.Schema, tr Triple, salt int64, opts ...structdiff.Option) (mergedEdits, conflicts int, err error) {
	o := append(append([]structdiff.Option(nil), opts...), structdiff.WithSchema(sch))

	// One allocator dominating all three trees, shared by both diffs, so
	// the two scripts draw disjoint fresh URIs exactly as merge.Trees does.
	alloc := uri.NewAllocator()
	for _, t := range []*tree.Node{tr.Base, tr.Ours, tr.Theirs} {
		tree.Walk(t, func(n *tree.Node) { alloc.Reserve(n.URI) })
	}
	do := append(append([]structdiff.Option(nil), o...), structdiff.WithAllocator(alloc))

	ra, err := structdiff.Diff(tr.Base, tr.Ours, do...)
	if err != nil {
		return 0, 0, propErr(PropMergeWellTyped, "diff base→ours failed: %w", err)
	}
	rb, err := structdiff.Diff(tr.Base, tr.Theirs, do...)
	if err != nil {
		return 0, 0, propErr(PropMergeWellTyped, "diff base→theirs failed: %w", err)
	}

	res, err := structdiff.MergeScripts(tr.Base, ra.Script, rb.Script, o...)
	if err != nil {
		conflicts, cerr := checkConflictedTriple(sch, tr, ra.Script, rb.Script, o, err)
		return 0, conflicts, cerr
	}
	return checkCleanTriple(sch, tr, ra.Script, rb.Script, res, o, salt)
}

// checkCleanTriple asserts the clean-merge properties.
func checkCleanTriple(sch *sig.Schema, tr Triple, ra, rb *truechange.Script, res *structdiff.MergeResult, o []structdiff.Option, salt int64) (int, int, error) {
	// Property — well-typedness: the merged script type-checks, keeps the
	// negative-before-positive order, and patches the ancestor closed.
	if err := structdiff.WellTyped(sch, res.Script); err != nil {
		return 0, 0, propErr(PropMergeWellTyped, "merged script is ill-typed: %w", err)
	}
	seenPositive := false
	for i, e := range res.Script.Edits {
		if e.Negative() && seenPositive {
			return 0, 0, propErr(PropMergeWellTyped, "merged negative edit #%d (%s) follows a positive edit", i, e)
		}
		seenPositive = seenPositive || !e.Negative()
	}
	mt, err := mtree.FromTree(sch, tr.Base)
	if err != nil {
		return 0, 0, propErr(PropMergeWellTyped, "ancestor rejected by mtree: %w", err)
	}
	if err := mt.Patch(res.Script); err != nil {
		return 0, 0, propErr(PropMergeWellTyped, "merged script does not patch its ancestor: %w", err)
	}
	if err := mt.CheckClosed(); err != nil {
		return 0, 0, propErr(PropMergeWellTyped, "merged tree is not closed: %w", err)
	}
	merged, err := mt.ToTree(uri.NewAllocator())
	if err != nil {
		return 0, 0, propErr(PropMergeWellTyped, "merged tree does not export: %w", err)
	}

	// Property — both applied: with no conflicts and no auto-resolutions
	// the two scripts touch disjoint typing resources, so applying them
	// sequentially must be legal and land on the very tree the merged
	// script produces. This is the "no change is ever lost" guarantee.
	if res.Stats.Conflicts == 0 && res.Stats.AutoResolved == 0 {
		seq, err := mtree.FromTree(sch, tr.Base)
		if err != nil {
			return 0, 0, propErr(PropMergeBothApplied, "ancestor rejected by mtree: %w", err)
		}
		if err := seq.Patch(ra); err != nil {
			return 0, 0, propErr(PropMergeBothApplied, "ours' script does not patch the ancestor: %w", err)
		}
		if err := seq.Patch(rb); err != nil {
			return 0, 0, propErr(PropMergeBothApplied, "theirs' script does not apply after ours despite a disjoint merge: %w", err)
		}
		if !seq.EqualTree(merged) {
			return 0, 0, propErr(PropMergeBothApplied, "sequential application differs from the merged script:\nsequential: %s\nmerged:     %s", seq, mt)
		}
	}

	// Property — commutativity: merging (theirs, ours) must also succeed,
	// with mirrored statistics, and patch the ancestor to an equal tree.
	sres, err := structdiff.MergeScripts(tr.Base, rb, ra, o...)
	if err != nil {
		return 0, 0, propErr(PropMergeCommutes, "swapped merge failed where the original succeeded: %w", err)
	}
	if sres.Stats.Conflicts != res.Stats.Conflicts || sres.Stats.AutoResolved != res.Stats.AutoResolved {
		return 0, 0, propErr(PropMergeCommutes, "swapped merge stats differ: %d conflicts/%d auto vs %d/%d",
			sres.Stats.Conflicts, sres.Stats.AutoResolved, res.Stats.Conflicts, res.Stats.AutoResolved)
	}
	smt, err := mtree.FromTree(sch, tr.Base)
	if err != nil {
		return 0, 0, propErr(PropMergeCommutes, "ancestor rejected by mtree: %w", err)
	}
	if err := smt.Patch(sres.Script); err != nil {
		return 0, 0, propErr(PropMergeCommutes, "swapped merged script does not patch the ancestor: %w", err)
	}
	if !smt.EqualTree(merged) {
		return 0, 0, propErr(PropMergeCommutes, "merge is order-dependent:\nours-first:   %s\ntheirs-first: %s", mt, smt)
	}

	// Property — fault rollback: a merged patch is transactional like any
	// other; a fault at edit salt%len must leave the ancestor untouched.
	if n := len(res.Script.Edits); n > 0 {
		at := uint64(salt) % uint64(n)
		rmt, err := mtree.FromTree(sch, tr.Base)
		if err != nil {
			return 0, 0, propErr(PropMergeRollback, "ancestor rejected by mtree: %w", err)
		}
		before := rmt.String()
		rmt.InjectFaults(faultinject.New(salt, faultinject.Fault{
			Site: mtree.FaultSiteEdit, Kind: faultinject.Error, After: at, Times: 1,
		}))
		if err := rmt.Patch(res.Script); err == nil {
			return 0, 0, propErr(PropMergeRollback, "merged patch succeeded despite a fault injected at edit %d of %d", at, n)
		} else if !errors.Is(err, faultinject.ErrInjected) {
			return 0, 0, propErr(PropMergeRollback, "merged patch failed, but not with the injected fault: %w", err)
		}
		if after := rmt.String(); after != before {
			return 0, 0, propErr(PropMergeRollback, "failed merged patch mutated the ancestor:\nbefore: %s\nafter:  %s", before, after)
		}
		if err := rmt.Patch(res.Script); err != nil {
			return 0, 0, propErr(PropMergeRollback, "re-patch after rollback failed: %w", err)
		}
		if !rmt.EqualTree(merged) {
			return 0, 0, propErr(PropMergeRollback, "re-patched tree after rollback differs from the merged tree")
		}
	}
	return len(res.Script.Edits), len(res.Conflicts), nil
}

// checkConflictedTriple asserts the conflict-path properties given the
// fail-policy error of the original merge.
func checkConflictedTriple(sch *sig.Schema, tr Triple, ra, rb *truechange.Script, o []structdiff.Option, mergeErr error) (int, error) {
	// Property — conflicts are reported, never dropped: the only
	// legitimate merge failure on two valid scripts is a typed conflict
	// report carrying at least one fully populated conflict.
	if !errors.Is(mergeErr, structdiff.ErrMergeConflict) {
		return 0, propErr(PropMergeWellTyped, "merge failed with a non-conflict error: %w", mergeErr)
	}
	var ce *structdiff.MergeConflictError
	if !errors.As(mergeErr, &ce) || len(ce.Conflicts) == 0 {
		return 0, propErr(PropMergeConflictReported, "ErrMergeConflict carries no conflict list: %w", mergeErr)
	}
	for i, c := range ce.Conflicts {
		if len(c.Ours) == 0 || len(c.Theirs) == 0 {
			return 0, propErr(PropMergeConflictReported, "conflict %d (%s) is missing a side: ours=%d theirs=%d edits",
				i, c.Kind, len(c.Ours), len(c.Theirs))
		}
		if c.Slot == nil && c.URI == 0 {
			return 0, propErr(PropMergeConflictReported, "conflict %d (%s) names neither a node nor a slot", i, c.Kind)
		}
	}

	// Property — commutativity of detection: swapping the sides must
	// conflict too, with the same number of conflicts.
	_, serr := structdiff.MergeScripts(tr.Base, rb, ra, o...)
	var sce *structdiff.MergeConflictError
	if !errors.As(serr, &sce) {
		return len(ce.Conflicts), propErr(PropMergeCommutes, "swapped merge did not conflict where the original did: %v", serr)
	}
	if len(sce.Conflicts) != len(ce.Conflicts) {
		return len(ce.Conflicts), propErr(PropMergeCommutes, "conflict detection is order-dependent: %d vs %d conflicts",
			len(ce.Conflicts), len(sce.Conflicts))
	}

	// Property — policy resolution: ours and theirs must both turn the
	// conflict into a clean, well-typed, patchable script and record every
	// resolution.
	for _, p := range []structdiff.MergePolicy{structdiff.MergePolicyOurs, structdiff.MergePolicyTheirs} {
		po := append(append([]structdiff.Option(nil), o...), structdiff.WithMergePolicy(p))
		pres, err := structdiff.MergeScripts(tr.Base, ra, rb, po...)
		if err != nil {
			return len(ce.Conflicts), propErr(PropMergeResolves, "policy %v failed to resolve: %w", p, err)
		}
		if len(pres.Conflicts) == 0 {
			return len(ce.Conflicts), propErr(PropMergeResolves, "policy %v resolved without recording any conflict", p)
		}
		for _, c := range pres.Conflicts {
			if c.Resolution != p {
				return len(ce.Conflicts), propErr(PropMergeResolves, "policy %v recorded a conflict resolved as %v", p, c.Resolution)
			}
		}
		if err := structdiff.WellTyped(sch, pres.Script); err != nil {
			return len(ce.Conflicts), propErr(PropMergeResolves, "policy %v produced an ill-typed script: %w", p, err)
		}
		mt, err := mtree.FromTree(sch, tr.Base)
		if err != nil {
			return len(ce.Conflicts), propErr(PropMergeResolves, "ancestor rejected by mtree: %w", err)
		}
		if err := mt.Patch(pres.Script); err != nil {
			return len(ce.Conflicts), propErr(PropMergeResolves, "policy %v script does not patch the ancestor: %w", p, err)
		}
		if err := mt.CheckClosed(); err != nil {
			return len(ce.Conflicts), propErr(PropMergeResolves, "policy %v merged tree is not closed: %w", p, err)
		}
	}
	return len(ce.Conflicts), nil
}

// --- Triple shrinking ----------------------------------------------------

// TripleProperty is the predicate ShrinkTriple preserves: nil means the
// triple passes, non-nil means it fails (the failure being minimized).
type TripleProperty func(base, ours, theirs *tree.Node) error

// ShrinkTriple minimizes (base, ours, theirs) while prop keeps failing,
// using the same schema-generic candidate enumeration as ShrinkPair on one
// side at a time (descendants first — merge failures usually live in the
// edits, not the ancestor). It returns the smallest failing triple found,
// the failure it exhibits, and the number of property evaluations spent.
func (sh *Shrinker) ShrinkTriple(base, ours, theirs *tree.Node, prop TripleProperty) (*tree.Node, *tree.Node, *tree.Node, error, int) {
	evals := 0
	lastErr := prop(base, ours, theirs)
	evals++
	if lastErr == nil {
		return base, ours, theirs, nil, evals
	}
	sides := [3]**tree.Node{&theirs, &ours, &base}
	for {
		improved := false
		for _, side := range sides {
			cur := *side
			for _, cand := range sh.candidates(cur) {
				if cand.Size() >= cur.Size() {
					continue
				}
				if evals >= sh.MaxEvals {
					return base, ours, theirs, lastErr, evals
				}
				saved := *side
				*side = cand
				err := prop(base, ours, theirs)
				evals++
				if err == nil {
					*side = saved
					continue // candidate no longer fails; keep looking
				}
				lastErr = err
				improved = true
				break // restart candidate enumeration from the smaller triple
			}
		}
		if !improved {
			return base, ours, theirs, lastErr, evals
		}
	}
}

// --- Triple reproducers --------------------------------------------------

// TripleReproducer is one committed merge-regression entry: a minimized
// failing triple serialized as S-expressions (which, unlike JSON values,
// survive NaN and ±Inf literals; URIs are reallocated on load, which is
// sound — every merge property is URI-independent). Entries live under
// testdata/regress/merge and TestMergeRegressionCorpus replays them all.
type TripleReproducer struct {
	// Lang names the generator schema: "pylang", "jsonlang", or "patho".
	Lang string `json:"lang"`
	// Property is the merge property that failed (PropMerge* constants).
	Property string `json:"property"`
	// Seed is the run seed the failure was found under.
	Seed int64 `json:"seed"`
	// Note describes the failure and, once fixed, the fix.
	Note string `json:"note,omitempty"`
	// Base, Ours, and Theirs are the shrunk triple, as tree S-expressions.
	Base   string `json:"base"`
	Ours   string `json:"ours"`
	Theirs string `json:"theirs"`
}

// NewTripleReproducer serializes a merge failure into a reproducer.
func NewTripleReproducer(f *TripleFailure) TripleReproducer {
	return TripleReproducer{
		Lang:     f.Generator,
		Property: f.Property,
		Seed:     f.Seed,
		Note:     f.Err.Error(),
		Base:     tree.EncodeSExpr(f.Triple.Base),
		Ours:     tree.EncodeSExpr(f.Triple.Ours),
		Theirs:   tree.EncodeSExpr(f.Triple.Theirs),
	}
}

// Trees decodes the reproducer's triple against its language schema,
// drawing fresh URIs from one shared allocator.
func (r TripleReproducer) Trees() (sch *sig.Schema, base, ours, theirs *tree.Node, err error) {
	sch, err = SchemaFor(r.Lang)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	alloc := uri.NewAllocator()
	decode := func(role, src string) (*tree.Node, error) {
		n, err := tree.DecodeSExpr(src, sch, alloc)
		if err != nil {
			return nil, fmt.Errorf("proptest: merge reproducer %s: %w", role, err)
		}
		return n, nil
	}
	if base, err = decode("base", r.Base); err != nil {
		return nil, nil, nil, nil, err
	}
	if ours, err = decode("ours", r.Ours); err != nil {
		return nil, nil, nil, nil, err
	}
	if theirs, err = decode("theirs", r.Theirs); err != nil {
		return nil, nil, nil, nil, err
	}
	return sch, base, ours, theirs, nil
}

// Save writes the reproducer into dir under a content-addressed name,
// returning the path. Saving the same reproducer twice is idempotent.
func (r TripleReproducer) Save(dir string) (string, error) {
	return saveJSON(dir, fmt.Sprintf("%s-%s", r.Lang, r.Property), r)
}

// LoadTripleReproducers reads every *.json triple reproducer in dir,
// sorted by name. A missing directory yields an empty slice.
func LoadTripleReproducers(dir string) ([]TripleReproducer, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	out := make([]TripleReproducer, 0, len(names))
	for _, name := range names {
		r, err := loadJSON[TripleReproducer](filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// MergeFuzzSchema is the schema the FuzzMerge target decodes its triples
// against (the jsonlang schema, shared with the pathological generator;
// pylang triples cannot seed a single-schema fuzz target).
func MergeFuzzSchema() *sig.Schema { return jsonlang.Schema() }

// saveJSON writes v into dir under a content-addressed name
// (prefix + first 8 digest hex chars), returning the path.
func saveJSON(dir, prefix string, v any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	sum := sha256.Sum256(data)
	path := filepath.Join(dir, fmt.Sprintf("%s-%x.json", prefix, sum[:4]))
	return path, os.WriteFile(path, data, 0o644)
}

// loadJSON reads one JSON file into a T.
func loadJSON[T any](path string) (T, error) {
	var v T
	data, err := os.ReadFile(path)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, fmt.Errorf("proptest: %s: %w", filepath.Base(path), err)
	}
	return v, nil
}
