// Package truediff implements the paper's structural diffing algorithm
// (Section 4). Given a source tree and a target tree over the same schema,
// Diff computes a concise, well-typed truechange edit script together with
// the patched tree, in four steps:
//
//  1. subtree equivalence relations, precomputed as cryptographic hashes on
//     the trees themselves (package tree);
//  2. subtree shares: structurally equivalent subtrees of source and target
//     are assigned the same share, and source subtrees register as
//     available resources (with equal subtrees assigned preemptively);
//  3. candidate selection: target subtrees acquire available source
//     subtrees greedily in highest-first order, preferring literally
//     equivalent (i.e. exact) copies;
//  4. edit computation: a simultaneous traversal emits detach/unload and
//     load/attach edits for changed regions and literal updates for reused
//     subtrees, with negative edits ordered before positive ones.
//
// The algorithm treats subtrees as linear resources: a source subtree is
// assigned to at most one target subtree, which is what makes the generated
// scripts well-typed under truechange's linear type system.
package truediff

import "repro/internal/tree"

// share is one equivalence class (one candidate-key value) of source
// subtrees registered as available for reuse (paper §4.2–4.3). A share
// owns no maps and no slices: which trees are still available, the
// registrations its queue threads through, and the index for selecting
// exact copies first all live in the registry, so recycling a share is
// zeroing it.
type share struct {
	// queue holds the share's registrations in registration order;
	// entries are deleted lazily (the registry's avail set stays
	// authoritative). Registration order makes candidate selection
	// deterministic.
	queue list
	// avail counts the share's currently available trees.
	avail int
}

// entry is one registration of a source tree. It is a node of its share's
// queue and, when the registry is preferring, of the preference list of
// its exact hash.
type entry struct {
	n        *tree.Node
	next     int32 // the share's next registration
	nextPref int32 // the next registration with the same exact hash
}

// list is a FIFO of registrations threaded through registry.entries by
// 1-based index; 0 ends the list, so the zero list is empty.
type list struct{ head, tail int32 }

// registry assigns shares to subtrees: two subtrees receive the same share
// iff their candidate keys agree (the paper's SubtreeRegistry, which uses a
// hash trie; a Go map over the hash provides the same constant-time
// behaviour). A registry is recyclable: its shares come from an arena that
// reset rewinds and its registrations from one slab, so repeated diffs
// through one Scratch amortize their allocations.
type registry struct {
	shares map[string]*share
	// arena holds every share ever allocated; arena[:used] serve this diff.
	arena []*share
	used  int
	// entries is the slab every registration of this diff is drawn from.
	entries []entry
	// avail maps every available source tree to its share.
	avail map[*tree.Node]*share
	// prefer indexes registrations by exact hash, with lazy deletion. The
	// exact hash is the structure hash (the candidate key of the
	// preferring mode) followed by the literal hash (the preference key),
	// so one index serves every share without building a key. It is
	// filled only when preferring is set, which a diff does when it has a
	// preference pass (StructuralWithLiteralPreference).
	prefer     map[string]list
	preferring bool
}

func newRegistry() registry {
	return registry{
		shares: make(map[string]*share),
		avail:  make(map[*tree.Node]*share),
		prefer: make(map[string]list),
	}
}

// reset prepares the registry for the next diff, recycling every share
// and registration.
func (r *registry) reset() {
	for _, s := range r.arena[:r.used] {
		*s = share{}
	}
	r.used = 0
	clear(r.entries)
	r.entries = r.entries[:0]
	clear(r.shares)
	clear(r.avail)
	clear(r.prefer)
}

// shareFor returns the share for candidate key, creating it on first use
// (drawing a recycled share from the arena when one is left).
func (r *registry) shareFor(key string) *share {
	s, ok := r.shares[key]
	if !ok {
		if r.used == len(r.arena) {
			r.arena = append(r.arena, &share{})
		}
		s = r.arena[r.used]
		r.used++
		r.shares[key] = s
	}
	return s
}

// lookup returns the share for key, or nil if no source subtree has
// registered under it.
func (r *registry) lookup(key string) *share {
	return r.shares[key]
}

// register marks the source subtree n as an available resource of share
// s. Registering an available node again is a no-op.
func (r *registry) register(s *share, n *tree.Node) {
	if r.avail[n] != nil {
		return
	}
	r.avail[n] = s
	s.avail++
	r.entries = append(r.entries, entry{n: n})
	i := int32(len(r.entries))
	if s.queue.head == 0 {
		s.queue.head = i
	} else {
		r.entries[s.queue.tail-1].next = i
	}
	s.queue.tail = i
	if r.preferring {
		k := n.ExactHash()
		l := r.prefer[k]
		if l.head == 0 {
			l.head = i
		} else {
			r.entries[l.tail-1].nextPref = i
		}
		l.tail = i
		r.prefer[k] = l
	}
}

// remove withdraws n from its share if it is available (lazy deletion in
// the lists).
func (r *registry) remove(n *tree.Node) {
	if s := r.avail[n]; s != nil {
		delete(r.avail, n)
		s.avail--
	}
}

// takePreferred acquires an available tree whose exact hash is key, or
// returns nil. The acquired tree is removed from its share. The second
// result is how many index entries were scanned (including stale ones),
// feeding the explain layer's "candidates considered" provenance.
func (r *registry) takePreferred(key string) (*tree.Node, int) {
	l := r.prefer[key]
	scanned := 0
	for l.head != 0 {
		e := &r.entries[l.head-1]
		l.head = e.nextPref
		scanned++
		if r.avail[e.n] != nil {
			r.prefer[key] = l
			r.remove(e.n)
			return e.n, scanned
		}
	}
	delete(r.prefer, key)
	return nil, scanned
}

// takeAny acquires any available tree of share s, or returns nil. The
// second result counts scanned queue entries, as for takePreferred.
func (r *registry) takeAny(s *share) (*tree.Node, int) {
	scanned := 0
	for s.queue.head != 0 {
		e := &r.entries[s.queue.head-1]
		s.queue.head = e.next
		scanned++
		if r.avail[e.n] != nil {
			r.remove(e.n)
			return e.n, scanned
		}
	}
	return nil, scanned
}
