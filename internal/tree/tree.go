// Package tree implements immutable, schema-validated trees with
// cryptographic subtree hashes.
//
// Trees are the input to structural diffing. Every node carries a
// constructor tag, a URI identity, an ordered list of child subtrees (one
// per kid link of the tag's signature), and an ordered list of literal
// values (one per literal link). Construction validates the node against
// its schema, so a *Node is well-typed by construction.
//
// Each node caches two hashes that drive the truediff algorithm's
// equivalence relations (paper §4.1):
//
//   - the structure hash, which covers the tag and the kids' structure
//     hashes but ignores literals — two trees are structurally equivalent
//     iff their structure hashes agree;
//   - the literal hash, which covers the literal values and the kids'
//     literal hashes but ignores tags — two trees are literally equivalent
//     iff their literal hashes agree.
//
// Two trees are equal iff they are both structurally and literally
// equivalent.
package tree

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"repro/internal/sig"
	"repro/internal/uri"
)

// HashKind selects the algorithm used for subtree hashes. The paper uses a
// cryptographic hash (SHA-256); FNV is provided for the hashing ablation
// benchmark.
type HashKind uint8

const (
	// SHA256 is the paper's choice: collision probability is negligible,
	// so hash equality can be used as tree equality.
	SHA256 HashKind = iota
	// FNV64 is a fast non-cryptographic hash; collisions are unlikely but
	// possible, so it trades a little safety for speed.
	FNV64
)

// Node is an immutable tree node. Kids and Lits are ordered exactly as in
// the tag's signature. Do not mutate a Node after construction; build a new
// tree instead (the mutable representation lives in package mtree).
type Node struct {
	Tag  sig.Tag
	URI  uri.URI
	Kids []*Node
	Lits []any

	height int
	size   int
	// digest is the structure digest followed by the literal digest, two
	// halves of equal length (32 bytes each under SHA-256, 8 under FNV-64).
	digest string
}

// New validates and constructs a node. kids must match the tag's kid links
// in number and sort (up to subtyping); lits must match the literal links in
// number and base type. Hashes are computed eagerly with SHA-256 so that
// tree construction accounts for hashing cost, as in the paper's evaluation.
func New(sch *sig.Schema, alloc *uri.Allocator, tag sig.Tag, kids []*Node, lits []any) (*Node, error) {
	return NewHashed(sch, alloc, tag, kids, lits, SHA256)
}

// NewHashed is New with an explicit hash algorithm.
func NewHashed(sch *sig.Schema, alloc *uri.Allocator, tag sig.Tag, kids []*Node, lits []any, kind HashKind) (*Node, error) {
	g := sch.Lookup(tag)
	if g == nil {
		return nil, fmt.Errorf("tree: undeclared tag %s", tag)
	}
	if tag == sig.RootTag {
		return nil, fmt.Errorf("tree: cannot construct the pre-defined root tag")
	}
	if len(kids) != len(g.Kids) {
		return nil, fmt.Errorf("tree: tag %s expects %d kids, got %d", tag, len(g.Kids), len(kids))
	}
	if len(lits) != len(g.Lits) {
		return nil, fmt.Errorf("tree: tag %s expects %d literals, got %d", tag, len(g.Lits), len(lits))
	}
	for i, k := range kids {
		if k == nil {
			return nil, fmt.Errorf("tree: tag %s kid %q is nil", tag, g.Kids[i].Link)
		}
		ks, ok := sch.ResultSort(k.Tag)
		if !ok {
			return nil, fmt.Errorf("tree: kid tag %s undeclared", k.Tag)
		}
		if !sch.IsSubsort(ks, g.Kids[i].Sort) {
			return nil, fmt.Errorf("tree: tag %s kid %q: sort %s is not a subsort of %s",
				tag, g.Kids[i].Link, ks, g.Kids[i].Sort)
		}
	}
	for i, l := range lits {
		if !g.Lits[i].Type.Admits(l) {
			return nil, fmt.Errorf("tree: tag %s literal %q: value %v (%T) does not conform to %s",
				tag, g.Lits[i].Link, l, l, g.Lits[i].Type)
		}
	}
	n := &Node{
		Tag:  tag,
		URI:  alloc.Fresh(),
		Kids: append([]*Node(nil), kids...),
		Lits: append([]any(nil), lits...),
	}
	n.finish(kind)
	return n, nil
}

// NewWithURI is NewHashed but uses the given URI instead of allocating a
// fresh one, and reserves it in alloc so future allocations cannot collide.
// It is used when reconstructing immutable trees from mutable ones while
// preserving node identities.
func NewWithURI(sch *sig.Schema, alloc *uri.Allocator, u uri.URI, tag sig.Tag, kids []*Node, lits []any, kind HashKind) (*Node, error) {
	n, err := NewHashed(sch, alloc, tag, kids, lits, kind)
	if err != nil {
		return nil, err
	}
	n.URI = u
	alloc.Reserve(u)
	return n, nil
}

// preBufSize is the stack buffer a node's pre-images are encoded into;
// only a pre-image longer than this (a very wide node or a long string
// literal) spills to the heap.
const preBufSize = 512

// finish computes the cached height, size, and digests of a node whose Tag,
// Kids, and Lits are already set. Kids must already be finished.
func (n *Node) finish(kind HashKind) {
	n.measure()
	var pre [preBufSize]byte
	var d [2 * sha256.Size]byte
	ds := appendDigest(d[:0], kind, appendStructPre(pre[:0], n))
	ds = appendDigest(ds, kind, appendLitPre(pre[:0], n))
	n.digest = string(ds)
}

// measure sets the cached height and size from the kids'.
func (n *Node) measure() {
	h, sz := 0, 1
	for _, k := range n.Kids {
		if k.height+1 > h {
			h = k.height + 1
		}
		sz += k.size
	}
	n.height, n.size = h, sz
}

// appendDigest appends the kind's digest of the pre-image pre to dst.
// FNV-64 is FNV-1a inlined, stored little-endian.
func appendDigest(dst []byte, kind HashKind, pre []byte) []byte {
	if kind == SHA256 {
		sum := sha256.Sum256(pre)
		return append(dst, sum[:]...)
	}
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for _, c := range pre {
		h ^= uint64(c)
		h *= 1099511628211 // FNV-1a 64-bit prime
	}
	return binary.LittleEndian.AppendUint64(dst, h)
}

// Height returns the node's height: 0 for leaves.
func (n *Node) Height() int { return n.height }

// Size returns the number of nodes in the subtree rooted at n.
func (n *Node) Size() int { return n.size }

// StructHash returns the structure-equivalence hash (ignores literals).
func (n *Node) StructHash() string { return n.digest[:len(n.digest)/2] }

// LitHash returns the literal-equivalence hash (ignores tags).
func (n *Node) LitHash() string { return n.digest[len(n.digest)/2:] }

// ExactHash returns a key under which two trees collide iff they are equal
// (structurally and literally equivalent): the structure hash followed by
// the literal hash.
func (n *Node) ExactHash() string { return n.digest }

// StructurallyEquivalent reports whether n and m have the same shape
// modulo literal values (paper: n ≃ m).
func StructurallyEquivalent(n, m *Node) bool { return n.StructHash() == m.StructHash() }

// LiterallyEquivalent reports whether n and m carry the same literals
// modulo tags.
func LiterallyEquivalent(n, m *Node) bool { return n.LitHash() == m.LitHash() }

// Walk visits the subtree rooted at n in preorder, including n itself.
func Walk(n *Node, f func(*Node)) {
	f(n)
	for _, k := range n.Kids {
		Walk(k, f)
	}
}

// WalkPost visits the subtree rooted at n in postorder, including n.
func WalkPost(n *Node, f func(*Node)) {
	for _, k := range n.Kids {
		WalkPost(k, f)
	}
	f(n)
}

// Count returns the number of nodes in the tree (same as n.Size()).
func Count(n *Node) int { return n.size }

// Equal reports deep structural and literal equality, ignoring URIs. It
// compares hashes first and falls back to a full traversal only when the
// hashes agree, making it safe even under FNV hashing.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.digest != b.digest {
		return false
	}
	return deepEqual(a, b)
}

func deepEqual(a, b *Node) bool {
	if a.Tag != b.Tag || len(a.Kids) != len(b.Kids) || len(a.Lits) != len(b.Lits) {
		return false
	}
	for i := range a.Lits {
		if !LitEqual(a.Lits[i], b.Lits[i]) {
			return false
		}
	}
	for i := range a.Kids {
		if !deepEqual(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}

// LitEqual reports equality of two literal values under the semantics the
// literal hash uses: float64 values compare by bit pattern, everything
// else by Go equality. Go's == disagrees with the hash on exactly the
// float specials — NaN != NaN although identical NaNs hash equal, and
// -0 == +0 although they hash differently — so comparing literals with ==
// lets hash-equal trees fail observable equality. Concretely, diffing
// trees containing NaN emitted scripts whose unload/update edits could
// never comply with their own source. Every literal comparison in the
// module must go through this function.
func LitEqual(a, b any) bool {
	if af, ok := a.(float64); ok {
		bf, ok := b.(float64)
		return ok && math.Float64bits(af) == math.Float64bits(bf)
	}
	return a == b
}

// Clone deep-copies the tree, assigning fresh URIs from alloc and
// recomputing hashes with the given algorithm. It is used by benchmarks to
// reconstruct trees before each diff so hashing cost is measured.
func Clone(n *Node, alloc *uri.Allocator, kind HashKind) *Node {
	kids := make([]*Node, len(n.Kids))
	for i, k := range n.Kids {
		kids[i] = Clone(k, alloc, kind)
	}
	c := &Node{
		Tag:  n.Tag,
		URI:  alloc.Fresh(),
		Kids: kids,
		Lits: append([]any(nil), n.Lits...),
	}
	c.finish(kind)
	return c
}

// String renders the tree as a compact term with URI subscripts, e.g.
// Add#1(Var#2{name="a"}, Num#3{n=1}).
func (n *Node) String() string {
	var b strings.Builder
	n.format(&b, nil)
	return b.String()
}

// StringIn renders the tree like String but labels literals with their
// link names from the schema.
func (n *Node) StringIn(sch *sig.Schema) string {
	var b strings.Builder
	n.format(&b, sch)
	return b.String()
}

func (n *Node) format(b *strings.Builder, sch *sig.Schema) {
	b.WriteString(string(n.Tag))
	b.WriteString(n.URI.String())
	if len(n.Lits) > 0 {
		b.WriteByte('{')
		var g *sig.Sig
		if sch != nil {
			g = sch.Lookup(n.Tag)
		}
		for i, l := range n.Lits {
			if i > 0 {
				b.WriteString(", ")
			}
			if g != nil && i < len(g.Lits) {
				b.WriteString(string(g.Lits[i].Link))
				b.WriteByte('=')
			}
			fmt.Fprintf(b, "%#v", l)
		}
		b.WriteByte('}')
	}
	if len(n.Kids) > 0 {
		b.WriteByte('(')
		for i, k := range n.Kids {
			if i > 0 {
				b.WriteString(", ")
			}
			k.format(b, sch)
		}
		b.WriteByte(')')
	}
}
