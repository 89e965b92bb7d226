package tree

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/uri"
)

// This file holds the pre-image encoders every digest is computed from
// (appendStructPre, appendLitPre), and three ways to give a node digests
// without hashing its pre-images afresh. Hashing at construction (finish)
// encodes each pre-image into a stack buffer and hashes it in one call, so
// it allocates only the digest string; what remains is the hash function
// itself, repeated for subtrees that recur across a stream of diffs:
//
//   - a DigestMemo caches digests keyed by their exact pre-image, so a
//     subtree whose (tag, kid digests) or (literals, kid digests) were
//     already hashed — in any earlier tree sharing the memo — reuses the
//     cached digest instead of recomputing it;
//   - Rebuilt constructs a node content-identical to an existing template
//     node and copies the template's digests outright, which the differ
//     uses when assembling patched trees (every patched node is
//     content-identical to its target counterpart by construction);
//   - CloneKeepDigests extends the same observation to whole trees that
//     already carry digests of the desired kind: digests never depend on
//     URIs, so a re-numbered copy keeps them verbatim (the engine admits
//     pre-hashed trees into its store this way, and HashedWith tells it
//     when that is sound).

// memoShards is the number of lock stripes in a DigestMemo. Striping keeps
// concurrent engine workers from serializing on one mutex.
const memoShards = 32

// DigestMemo is a concurrency-safe cache of subtree digests keyed by their
// hash pre-image. One memo is meant to be shared across many trees and many
// diffs (the engine owns one per schema); the namespace string partitions
// keys so memos fed by different schemas or hash kinds cannot collide.
type DigestMemo struct {
	namespace string
	seed      maphash.Seed
	shards    [memoShards]memoShard
	hits      atomic.Uint64
	misses    atomic.Uint64
}

type memoShard struct {
	mu sync.Mutex
	m  map[string]string
}

// NewDigestMemo returns an empty memo. The namespace is mixed into every
// key; use a schema fingerprint (plus hash kind) so one process can run
// memos for several tree languages side by side.
func NewDigestMemo(namespace string) *DigestMemo {
	dm := &DigestMemo{namespace: namespace, seed: maphash.MakeSeed()}
	for i := range dm.shards {
		dm.shards[i].m = make(map[string]string)
	}
	return dm
}

// lookup returns the cached digest for key, or computes it via fresh,
// stores it, and returns it. Hit/miss counters feed the engine's Snapshot.
func (dm *DigestMemo) lookup(key string, fresh func() string) string {
	s := &dm.shards[maphash.String(dm.seed, key)%memoShards]
	s.mu.Lock()
	if d, ok := s.m[key]; ok {
		s.mu.Unlock()
		dm.hits.Add(1)
		return d
	}
	s.mu.Unlock()
	// Compute outside the lock: digesting is the expensive part, and a
	// duplicate computation by a racing worker is harmless (same value).
	d := fresh()
	s.mu.Lock()
	s.m[key] = d
	s.mu.Unlock()
	dm.misses.Add(1)
	return d
}

// Stats returns the cumulative hit and miss counts.
func (dm *DigestMemo) Stats() (hits, misses uint64) {
	return dm.hits.Load(), dm.misses.Load()
}

// Len returns the number of cached digests.
func (dm *DigestMemo) Len() int {
	n := 0
	for i := range dm.shards {
		s := &dm.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// memoDigest returns one of n's digests — the structure digest for which
// 's', the literal digest for 'l' — from the memo when its pre-image was
// seen before. The key is the namespace, which, and the exact pre-image.
// Kids must already carry digests.
func (dm *DigestMemo) memoDigest(which byte, n *Node, kind HashKind) string {
	key := append([]byte(dm.namespace), which)
	pre := len(key)
	if which == 's' {
		key = appendStructPre(key, n)
	} else {
		key = appendLitPre(key, n)
	}
	return dm.lookup(string(key), func() string { return string(appendDigest(nil, kind, key[pre:])) })
}

// CloneMemo is Clone with digest reuse: the copy's digests are drawn from
// the memo when their pre-images were seen before, and computed (then
// cached) otherwise. The clone is identical to Clone's output; only the
// hashing work differs. Safe for concurrent use with a shared memo as long
// as alloc is not shared.
func CloneMemo(n *Node, alloc *uri.Allocator, kind HashKind, memo *DigestMemo) *Node {
	if memo == nil {
		return Clone(n, alloc, kind)
	}
	kids := make([]*Node, len(n.Kids))
	for i, k := range n.Kids {
		kids[i] = CloneMemo(k, alloc, kind, memo)
	}
	c := &Node{
		Tag:  n.Tag,
		URI:  alloc.Fresh(),
		Kids: kids,
		Lits: append([]any(nil), n.Lits...),
	}
	c.measure(n.schema)
	c.digest = memo.memoDigest('s', c, kind) + memo.memoDigest('l', c, kind)
	return c
}

// Rebuilt constructs a node with the given URI, kids, and the tag and
// literals of the template node like, copying like's digests instead of
// recomputing them. It is valid only when the result is content-identical
// to like: same tag, equal literal values, and kids whose digests equal
// like's kids' digests. The differ satisfies this by construction when it
// reassembles patched trees — each patched subtree is content-identical to
// its target counterpart — which makes rehashing provably redundant there.
// The URI is reserved in alloc so future allocations cannot collide. The
// result carries like's schema stamp when every kid carries it too.
func Rebuilt(like *Node, alloc *uri.Allocator, u uri.URI, kids []*Node) *Node {
	alloc.Reserve(u)
	n := &Node{
		Tag:    like.Tag,
		URI:    u,
		Kids:   kids,
		Lits:   append([]any(nil), like.Lits...),
		digest: like.digest,
	}
	n.measure(like.schema)
	return n
}

// HashedWith reports whether n carries digests of the given kind. A node
// does not record the algorithm its digests were computed with, but the two
// kinds have distinct digest sizes (32 bytes for SHA-256, 8 for FNV-64), so
// the length of the combined digest identifies the kind unambiguously.
func HashedWith(n *Node, kind HashKind) bool {
	if kind == SHA256 {
		return len(n.digest) == 2*sha256.Size
	}
	return len(n.digest) == 2*8
}

// CloneKeepDigests deep-copies the tree with fresh URIs from alloc, copying
// the existing digests instead of recomputing them. Digests are functions of
// structure and literals only — never URIs — so the copy's digests are the
// original's by construction. Valid only when n already carries digests of
// the desired kind (check with HashedWith); the engine uses it to admit
// pre-hashed trees into its store without paying for hashing at all. The
// copy keeps n's schema stamp. URIs are drawn in postorder, as building the
// tree bottom-up draws them.
//
// The copy's nodes and kid slices come from two allocations, and it shares
// n's literal slices, which no one writes once a node is built. A part of
// the copy that outlives the rest therefore keeps the whole copy alive.
func CloneKeepDigests(n *Node, alloc *uri.Allocator) *Node {
	c, _, _ := cloneKeepDigests(n, alloc, make([]Node, n.size), make([]*Node, n.size-1))
	return c
}

// cloneKeepDigests copies n into nodes[0] and its kid slices into the
// front of kids, and returns the copy with what is left of both.
func cloneKeepDigests(n *Node, alloc *uri.Allocator, nodes []Node, kids []*Node) (*Node, []Node, []*Node) {
	c := &nodes[0]
	nodes = nodes[1:]
	ks := kids[:len(n.Kids):len(n.Kids)]
	kids = kids[len(n.Kids):]
	for i, k := range n.Kids {
		ks[i], nodes, kids = cloneKeepDigests(k, alloc, nodes, kids)
	}
	*c = Node{Tag: n.Tag, URI: alloc.Fresh(), Kids: ks, Lits: n.Lits, digest: n.digest}
	c.measure(n.schema)
	return c, nodes, kids
}

// appendStructPre appends the pre-image of n's structure digest: the tag
// and the kids' structure digests, each length-prefixed.
func appendStructPre(b []byte, n *Node) []byte {
	b = appendLenStr(b, string(n.Tag))
	for _, k := range n.Kids {
		b = appendLenStr(b, k.StructHash())
	}
	return b
}

// appendLitPre appends the pre-image of n's literal digest: the literal
// values, then the kids' literal digests length-prefixed.
func appendLitPre(b []byte, n *Node) []byte {
	for _, l := range n.Lits {
		b = appendLit(b, l)
	}
	for _, k := range n.Kids {
		b = appendLenStr(b, k.LitHash())
	}
	return b
}

// appendLenStr appends s prefixed with its length as a little-endian
// uint64, so concatenated fields cannot be confused.
func appendLenStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// appendLit appends a literal behind a type discriminator, so that, e.g.,
// the string "1" and the integer 1 encode differently. Floats encode by
// bit pattern, which is why LitEqual compares them that way.
func appendLit(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		b = append(b, 's')
		return appendLenStr(b, x)
	case int64:
		b = append(b, 'i')
		return binary.LittleEndian.AppendUint64(b, uint64(x))
	case float64:
		b = append(b, 'f')
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	case bool:
		b = append(b, 'b')
		if x {
			return binary.LittleEndian.AppendUint64(b, 1)
		}
		return binary.LittleEndian.AppendUint64(b, 0)
	default:
		// Construction validates literal types, so this is unreachable for
		// nodes built through New; encode the formatted value defensively.
		b = append(b, '?')
		return appendLenStr(b, fmt.Sprint(v))
	}
}
