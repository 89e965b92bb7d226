package truediff

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/derrors"
	"repro/internal/exp"
	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/uri"
)

// alienSchema is the expression schema plus a tag the differ's copy lacks.
func alienSchema() *sig.Schema {
	s := exp.Schema()
	s.MustDeclare(sig.Sig{Tag: "Alien", Result: exp.Exp})
	return s
}

// A tree built against another *sig.Schema skips no check: it takes the
// full walk, which rejects an undeclared tag with ErrSchemaMismatch and
// admits a tree whose tags are all declared.
func TestForeignSchemaStillRejected(t *testing.T) {
	d := New(exp.Schema())
	own := tree.NewBuilder(d.Schema(), uri.NewAllocator())
	dst := own.MustN(exp.Num, 1)

	ab := tree.NewBuilder(alienSchema(), uri.NewAllocator())
	alien := ab.MustN(exp.Add, ab.MustN("Alien"), ab.MustN(exp.Num, 2))
	if _, err := d.Diff(alien, dst, nil); !errors.Is(err, derrors.ErrSchemaMismatch) {
		t.Errorf("foreign source: err = %v, want ErrSchemaMismatch", err)
	}
	if _, err := d.Diff(dst, alien, nil); !errors.Is(err, derrors.ErrSchemaMismatch) {
		t.Errorf("foreign target: err = %v, want ErrSchemaMismatch", err)
	}

	// An equal schema is another pointer: no stamp match, but every tag is
	// declared, so the walk admits the tree.
	eb := tree.NewBuilder(exp.Schema(), uri.NewAllocator())
	equal := eb.MustN(exp.Add, eb.MustN(exp.Num, 1), eb.MustN(exp.Num, 2))
	if equal.ValidatedAgainst(d.Schema()) {
		t.Fatal("tree of an equal schema carries the differ's stamp")
	}
	diffAndVerify(t, d, equal, own.MustN(exp.Num, 1), nil)
}

// A mixed tree — the differ's own nodes above a kid from a foreign schema —
// carries no stamp, so the walk reaches the foreign kid's descendants and
// rejects the tag the differ's schema does not declare.
func TestMixedTreeTakesTheWalk(t *testing.T) {
	d := New(exp.Schema())
	own := tree.NewBuilder(d.Schema(), uri.NewAllocator())
	ab := tree.NewBuilder(alienSchema(), uri.NewAllocator())
	// Add is declared in both schemas, so tree.New admits the foreign kid;
	// only its descendant Alien is undeclared in the differ's schema.
	mixed := own.MustN(exp.Mul, ab.MustN(exp.Add, ab.MustN("Alien"), ab.MustN(exp.Num, 1)), own.MustN(exp.Num, 2))
	if err := own.Err(); err != nil {
		t.Fatal(err)
	}
	if mixed.ValidatedAgainst(d.Schema()) {
		t.Fatal("mixed tree carries the differ's stamp")
	}
	_, err := d.Diff(mixed, own.MustN(exp.Num, 3), nil)
	if !errors.Is(err, derrors.ErrSchemaMismatch) || !strings.Contains(err.Error(), "Alien") {
		t.Errorf("mixed source: err = %v, want ErrSchemaMismatch naming Alien", err)
	}
}

// Patched trees of stamped inputs stay stamped, and their MaxURI is exact,
// so a chain of diffs, each diffing the last patched tree, keeps the O(1)
// prepare phase throughout.
func TestPatchedTreesStayStamped(t *testing.T) {
	g := exp.NewGen(7)
	d := New(g.Schema())
	cur := g.Tree(60)
	for i := 0; i < 20; i++ {
		next := g.MutateN(cur, 3)
		res := diffAndVerify(t, d, cur, next, nil)
		p := res.Patched
		if !p.ValidatedAgainst(d.Schema()) {
			t.Fatalf("round %d: patched tree lost the schema stamp", i)
		}
		var m uri.URI
		tree.Walk(p, func(n *tree.Node) { m = max(m, n.URI) })
		if p.MaxURI() != m {
			t.Fatalf("round %d: patched MaxURI = %s, full walk = %s", i, p.MaxURI(), m)
		}
		cur = p
	}
}

// chainSExpr is a chain of depth nodes: depth-1 nested Calls around a Num.
func chainSExpr(depth int, leaf string) string {
	return strings.Repeat(`(Call "f" `, depth-1) + "(Num " + leaf + ")" + strings.Repeat(")", depth-1)
}

// The depth cap: the deepest chain the S-expression decoder admits still
// diffs, and a tree one level deeper — buildable in-process — fails every
// entry point with ErrTreeTooDeep instead of overflowing the stack.
func TestHeightCap(t *testing.T) {
	d := New(exp.Schema())
	alloc := uri.NewAllocator()
	src, err := tree.DecodeSExpr(chainSExpr(tree.MaxSExprDepth, "1"), d.Schema(), alloc)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := tree.DecodeSExpr(chainSExpr(tree.MaxSExprDepth, "2"), d.Schema(), alloc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Diff(src, dst, alloc)
	if err != nil {
		t.Fatalf("chains at the cap: %v", err)
	}
	if n := res.Script.EditCount(); n != 1 {
		t.Errorf("chains at the cap differing in one literal: %d edits, want 1", n)
	}

	deep, err := tree.New(d.Schema(), alloc, exp.Call, []*tree.Node{src}, []any{"g"})
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]func() error{
		"Diff source": func() error { _, err := d.Diff(deep, dst, nil); return err },
		"Diff target": func() error { _, err := d.Diff(src, deep, nil); return err },
		"InitialScript": func() error {
			_, err := d.InitialScript(deep, nil)
			return err
		},
		"RootReplace": func() error { _, err := d.RootReplace(src, deep, nil); return err },
		"DiffWithMatching": func() error {
			_, err := d.DiffWithMatching(deep, dst, nil, nil)
			return err
		},
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, derrors.ErrTreeTooDeep) {
			t.Errorf("%s: err = %v, want ErrTreeTooDeep", name, err)
		}
	}
}
