package tree

import (
	"testing"
	"unsafe"

	"repro/internal/sig"
	"repro/internal/uri"
)

// A Node must stay within 112 bytes: one field more pushes every node into
// the 128-byte allocation size class, growing every tree by an eighth.
func TestNodeSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 112 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, want <= 112", size)
	}
}

// walkMaxURI is the full-walk reference MaxURI is checked against.
func walkMaxURI(n *Node) uri.URI {
	var m uri.URI
	Walk(n, func(x *Node) { m = max(m, x.URI) })
	return m
}

// The schema stamp: a tree built against one *sig.Schema is validated
// against exactly that pointer, the copy constructors keep the stamp, and
// a tree mixing nodes of two schemas — even two equal ones — has none.
func TestSchemaStamp(t *testing.T) {
	sch, other := testSchema(), testSchema()
	alloc := uri.NewAllocator()
	b := NewBuilder(sch, alloc)
	own := b.MustN("Add", b.MustN("Num", 1), b.MustN("Var", "x"))
	if !own.ValidatedAgainst(sch) {
		t.Error("tree built against sch is not stamped with it")
	}
	if own.ValidatedAgainst(other) || own.ValidatedAgainst(nil) {
		t.Error("stamp matches a schema the tree was not built against")
	}

	foreign := NewBuilder(other, alloc).MustN("Num", 2)
	mixed := b.MustN("Sub", foreign, b.MustN("Num", 3))
	wrapped := b.MustN("Add", mixed, b.MustN("Num", 4))
	for name, n := range map[string]*Node{"mixed": mixed, "wrapped mixed": wrapped} {
		if n.ValidatedAgainst(sch) || n.ValidatedAgainst(other) {
			t.Errorf("%s tree carries a stamp", name)
		}
	}

	memo := NewDigestMemo("stamp")
	for _, c := range []struct {
		name  string
		clone func(*Node) *Node
	}{
		{"Clone", func(n *Node) *Node { return Clone(n, alloc, SHA256) }},
		{"CloneMemo", func(n *Node) *Node { return CloneMemo(n, alloc, SHA256, memo) }},
		{"CloneKeepDigests", func(n *Node) *Node { return CloneKeepDigests(n, alloc) }},
	} {
		if !c.clone(own).ValidatedAgainst(sch) {
			t.Errorf("%s dropped the stamp", c.name)
		}
		if c.clone(wrapped).ValidatedAgainst(sch) {
			t.Errorf("%s stamped a mixed tree", c.name)
		}
	}

	// Rebuilt stamps like's schema only when every kid carries it.
	if r := Rebuilt(own, alloc, alloc.Fresh(), []*Node{own.Kids[0], own.Kids[1]}); !r.ValidatedAgainst(sch) {
		t.Error("Rebuilt over stamped kids is not stamped")
	}
	alien := CloneKeepDigests(own.Kids[0], alloc)
	alien.schema = other
	if r := Rebuilt(own, alloc, alloc.Fresh(), []*Node{alien, own.Kids[1]}); r.ValidatedAgainst(sch) {
		t.Error("Rebuilt over a foreign kid is stamped")
	}
	if r := Rebuilt(mixed, alloc, alloc.Fresh(), []*Node{own.Kids[0], own.Kids[1]}); r.ValidatedAgainst(sch) {
		t.Error("Rebuilt of an unstamped template is stamped")
	}
}

// MaxURI equals a full walk's maximum after every constructor, including
// the two that set URIs themselves (NewWithURI, Rebuilt) and so can put a
// small URI above a large one.
func TestMaxURI(t *testing.T) {
	sch := testSchema()
	alloc := uri.NewAllocator()
	big, err := NewWithURI(sch, alloc, 500, "Num", nil, []any{int64(1)}, SHA256)
	if err != nil {
		t.Fatal(err)
	}
	// The parents draw from a fresh allocator, so the largest URI sits in
	// a leaf, not at the root.
	low := uri.NewAllocator()
	inner, err := New(sch, low, "Add", []*Node{big, mustLeaf(t, sch, low)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// NewWithURI consumes a fresh URI (here #501) before installing u;
	// MaxURI must not remember the discarded one.
	root, err := NewWithURI(sch, alloc, 7, "Sub", []*Node{inner, mustLeaf(t, sch, low)}, nil, SHA256)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewDigestMemo("maxuri")
	cases := map[string]*Node{
		"NewWithURI leaf":  big,
		"New":              inner,
		"NewWithURI":       root,
		"Clone":            Clone(root, uri.NewAllocator(), SHA256),
		"CloneMemo":        CloneMemo(root, uri.NewAllocator(), SHA256, memo),
		"CloneKeepDigests": CloneKeepDigests(root, uri.NewAllocator()),
		"Rebuilt low":      Rebuilt(root, alloc, 3, root.Kids),
		"Rebuilt high":     Rebuilt(root, alloc, 9000, root.Kids),
	}
	for name, n := range cases {
		if got, want := n.MaxURI(), walkMaxURI(n); got != want {
			t.Errorf("%s: MaxURI = %s, full walk = %s", name, got, want)
		}
	}
	if root.MaxURI() != 500 {
		t.Errorf("root MaxURI = %s, want #500", root.MaxURI())
	}
}

func mustLeaf(t *testing.T, sch *sig.Schema, alloc *uri.Allocator) *Node {
	t.Helper()
	n, err := New(sch, alloc, "Var", nil, []any{"v"})
	if err != nil {
		t.Fatal(err)
	}
	return n
}
