package merge

import (
	"sort"

	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/uri"
)

// This file is the claim analysis underneath conflict detection. It works
// entirely on the linear typing resources of truechange (Figure 3): roots
// (unattached subtrees, identified by URI) and slots (empty child links,
// identified by parent URI + link). In a well-typed closed script every
// resource is produced exactly once and consumed exactly once, so the edits
// connected by shared resources form "change groups" — the smallest units
// that can be dropped from a script while keeping the remainder closed.
// Conflicts are then intersections of the base-tree claims of one script's
// groups with the other's; no tree heuristics are involved.

// resKey identifies one linear typing resource: a root (slot == false) or
// an empty slot (slot == true).
type resKey struct {
	slot bool
	u    uri.URI
	link sig.Link
}

func rootRes(u uri.URI) resKey             { return resKey{u: u} }
func slotRes(u uri.URI, l sig.Link) resKey { return resKey{slot: true, u: u, link: l} }

// editResources enumerates the typing resources an edit produces or
// consumes. Update touches neither roots nor slots, so it contributes no
// resources and always forms a singleton group.
func editResources(e truechange.Edit, add func(resKey)) {
	switch ed := e.(type) {
	case truechange.Detach:
		add(rootRes(ed.Node.URI))
		add(slotRes(ed.Parent.URI, ed.Link))
	case truechange.Attach:
		add(rootRes(ed.Node.URI))
		add(slotRes(ed.Parent.URI, ed.Link))
	case truechange.Load:
		add(rootRes(ed.Node.URI))
		for _, k := range ed.Kids {
			add(rootRes(k.URI))
		}
	case truechange.Unload:
		add(rootRes(ed.Node.URI))
		for _, k := range ed.Kids {
			add(rootRes(k.URI))
		}
	}
}

// group is one resource-connected component of a script's edits, with the
// claims it makes on the base tree:
//
//   - slots: child slots the group empties and refills (Detach/Attach
//     parent slots);
//   - updates: nodes whose literals the group rewrites (Update);
//   - deletes: base nodes the group unloads (Unload of a node the same
//     script did not itself load);
//   - loads: URIs the group loads fresh (never base claims, but needed to
//     tell churn from deletion and to canonicalize equivalence).
type group struct {
	id      int
	indices []int // edit positions in the owning script, ascending
	edits   []truechange.Edit
	dead    bool // dropped by a resolution policy or convergence

	slots   map[truechange.Slot]bool
	updates map[uri.URI]bool
	deletes map[uri.URI]bool
	loads   map[uri.URI]bool
}

// computeGroups partitions a script into change groups with a union-find
// over shared typing resources, returning the groups ordered by their first
// edit (deterministic for a given script).
func computeGroups(s *truechange.Script) []*group {
	n := len(s.Edits)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb { // keep the smallest index as representative
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	owner := make(map[resKey]int)
	for i, e := range s.Edits {
		editResources(e, func(r resKey) {
			if o, ok := owner[r]; ok {
				union(i, o)
			} else {
				owner[r] = i
			}
		})
	}

	byRep := make(map[int]*group)
	var out []*group
	for i, e := range s.Edits {
		rep := find(i)
		g := byRep[rep]
		if g == nil {
			g = &group{id: len(out)}
			byRep[rep] = g
			out = append(out, g)
		}
		g.indices = append(g.indices, i)
		g.edits = append(g.edits, e)
	}
	for _, g := range out {
		g.computeClaims()
	}
	return out
}

// computeClaims derives the group's base-tree claims from its edits. Edits
// are visited in script order, so a Load is recorded before any later
// Unload of the same URI (load/unload churn is not a deletion of base
// material); an Unload preceding a Load of the same URI deletes a base node
// that the script then reuses the URI of, and stays a delete claim.
func (g *group) computeClaims() {
	g.slots = make(map[truechange.Slot]bool)
	g.updates = make(map[uri.URI]bool)
	g.deletes = make(map[uri.URI]bool)
	g.loads = make(map[uri.URI]bool)
	for _, e := range g.edits {
		switch ed := e.(type) {
		case truechange.Detach:
			g.slots[truechange.Slot{URI: ed.Parent.URI, Link: ed.Link}] = true
		case truechange.Attach:
			g.slots[truechange.Slot{URI: ed.Parent.URI, Link: ed.Link}] = true
		case truechange.Load:
			g.loads[ed.Node.URI] = true
		case truechange.Unload:
			if !g.loads[ed.Node.URI] {
				g.deletes[ed.Node.URI] = true
			}
		case truechange.Update:
			g.updates[ed.Node.URI] = true
		}
	}
}

// sortedSlots and sortedURIs give deterministic iteration over claim sets.
func sortedSlots(m map[truechange.Slot]bool) []truechange.Slot {
	out := make([]truechange.Slot, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].URI != out[j].URI {
			return out[i].URI < out[j].URI
		}
		return out[i].Link < out[j].Link
	})
	return out
}

func sortedURIs(m map[uri.URI]bool) []uri.URI {
	out := make([]uri.URI, 0, len(m))
	for u := range m {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// claimIndex inverts one script's claims for cross-script lookup. Every
// entry is a slice: well-typed scripts claim each slot in exactly one group,
// but updates (and degenerate hand-written scripts) may repeat.
type claimIndex struct {
	slot       map[truechange.Slot][]*group
	slotParent map[uri.URI][]slotClaim // slot claims keyed by the slot's parent node
	update     map[uri.URI][]*group
	del        map[uri.URI][]*group
}

type slotClaim struct {
	slot truechange.Slot
	g    *group
}

func indexClaims(groups []*group) *claimIndex {
	ix := &claimIndex{
		slot:       make(map[truechange.Slot][]*group),
		slotParent: make(map[uri.URI][]slotClaim),
		update:     make(map[uri.URI][]*group),
		del:        make(map[uri.URI][]*group),
	}
	for _, g := range groups {
		for _, s := range sortedSlots(g.slots) {
			ix.slot[s] = append(ix.slot[s], g)
			ix.slotParent[s.URI] = append(ix.slotParent[s.URI], slotClaim{slot: s, g: g})
		}
		for _, u := range sortedURIs(g.updates) {
			ix.update[u] = append(ix.update[u], g)
		}
		for _, u := range sortedURIs(g.deletes) {
			ix.del[u] = append(ix.del[u], g)
		}
	}
	return ix
}

// rawConflict is one detected claim intersection between a group of ours
// (a) and a group of theirs (b), before convergence analysis and policy
// resolution.
type rawConflict struct {
	kind ConflictKind
	uri  uri.URI
	slot *truechange.Slot
	a, b *group
}

// detectConflicts intersects the claims of ours' groups with theirs'. The
// four claim rules together cover the conflict taxonomy:
//
//  1. shared slot claim (both scripts empty/refill the same child slot) —
//     competing attaches, competing subtree replacements, competing moves;
//  2. both update the same node's literals;
//  3. one updates a node the other deletes;
//  4. one edits a slot of (or both delete) a node inside a subtree the
//     other deletes — attach-into-unloaded-subtree and overlapping
//     deletions.
//
// Iteration is over sorted claim sets, so the conflict order is a pure
// function of the two scripts.
func detectConflicts(oursGroups []*group, theirsIx *claimIndex) []rawConflict {
	var out []rawConflict
	for _, ga := range oursGroups {
		for _, s := range sortedSlots(ga.slots) {
			s := s
			for _, gb := range theirsIx.slot[s] {
				out = append(out, rawConflict{kind: ConflictSlot, uri: s.URI, slot: &s, a: ga, b: gb})
			}
			// Rule 4, ours-edits-into-theirs-deleted direction.
			for _, gb := range theirsIx.del[s.URI] {
				out = append(out, rawConflict{kind: ConflictDeleteEdit, uri: s.URI, slot: &s, a: ga, b: gb})
			}
		}
		for _, u := range sortedURIs(ga.updates) {
			for _, gb := range theirsIx.update[u] {
				out = append(out, rawConflict{kind: ConflictUpdateUpdate, uri: u, a: ga, b: gb})
			}
			for _, gb := range theirsIx.del[u] {
				out = append(out, rawConflict{kind: ConflictUpdateDelete, uri: u, a: ga, b: gb})
			}
		}
		for _, u := range sortedURIs(ga.deletes) {
			for _, gb := range theirsIx.update[u] {
				out = append(out, rawConflict{kind: ConflictUpdateDelete, uri: u, a: ga, b: gb})
			}
			for _, gb := range theirsIx.del[u] {
				out = append(out, rawConflict{kind: ConflictDeleteDelete, uri: u, a: ga, b: gb})
			}
			// Rule 4, theirs-edits-into-ours-deleted direction.
			for _, sc := range theirsIx.slotParent[u] {
				sc := sc
				out = append(out, rawConflict{kind: ConflictDeleteEdit, uri: u, slot: &sc.slot, a: ga, b: sc.g})
			}
		}
	}
	return out
}

// groupsEquivalent reports whether two change groups describe the same
// change: identical edit sequences up to a bijective renaming of their
// freshly loaded URIs, with literals compared by tree.LitEqual (bit-pattern
// float semantics — the PR 4 bug class). Equivalent groups are convergent
// edits (both sides made the same change) and auto-resolve by keeping one
// copy.
func groupsEquivalent(a, b *group) bool {
	if len(a.edits) != len(b.edits) {
		return false
	}
	// ab is the fresh-URI bijection built up in edit order.
	ab := make(map[uri.URI]uri.URI)
	ba := make(map[uri.URI]uri.URI)
	uriEq := func(ua, ub uri.URI) bool {
		fa, fb := a.loads[ua], b.loads[ub]
		if fa != fb {
			return false
		}
		if !fa {
			return ua == ub // base URIs must match exactly
		}
		if mb, ok := ab[ua]; ok {
			return mb == ub
		}
		if ma, ok := ba[ub]; ok {
			return ma == ua
		}
		ab[ua] = ub
		ba[ub] = ua
		return true
	}
	refEq := func(na, nb truechange.NodeRef) bool {
		return na.Tag == nb.Tag && uriEq(na.URI, nb.URI)
	}
	kidsEq := func(ka, kb []truechange.KidArg) bool {
		if len(ka) != len(kb) {
			return false
		}
		byLink := make(map[sig.Link]uri.URI, len(kb))
		for _, k := range kb {
			byLink[k.Link] = k.URI
		}
		for _, k := range ka {
			ub, ok := byLink[k.Link]
			if !ok || !uriEq(k.URI, ub) {
				return false
			}
		}
		return true
	}
	litsEq := func(la, lb []truechange.LitArg) bool {
		if len(la) != len(lb) {
			return false
		}
		byLink := make(map[sig.Link]any, len(lb))
		for _, l := range lb {
			byLink[l.Link] = l.Value
		}
		for _, l := range la {
			vb, ok := byLink[l.Link]
			if !ok || !tree.LitEqual(l.Value, vb) {
				return false
			}
		}
		return true
	}
	for i := range a.edits {
		switch ea := a.edits[i].(type) {
		case truechange.Detach:
			eb, ok := b.edits[i].(truechange.Detach)
			if !ok || ea.Link != eb.Link || !refEq(ea.Node, eb.Node) || !refEq(ea.Parent, eb.Parent) {
				return false
			}
		case truechange.Attach:
			eb, ok := b.edits[i].(truechange.Attach)
			if !ok || ea.Link != eb.Link || !refEq(ea.Node, eb.Node) || !refEq(ea.Parent, eb.Parent) {
				return false
			}
		case truechange.Load:
			eb, ok := b.edits[i].(truechange.Load)
			if !ok || !refEq(ea.Node, eb.Node) || !kidsEq(ea.Kids, eb.Kids) || !litsEq(ea.Lits, eb.Lits) {
				return false
			}
		case truechange.Unload:
			eb, ok := b.edits[i].(truechange.Unload)
			if !ok || !refEq(ea.Node, eb.Node) || !kidsEq(ea.Kids, eb.Kids) || !litsEq(ea.Lits, eb.Lits) {
				return false
			}
		case truechange.Update:
			eb, ok := b.edits[i].(truechange.Update)
			if !ok || !refEq(ea.Node, eb.Node) || !litsEq(ea.Old, eb.Old) || !litsEq(ea.New, eb.New) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// freshLoads returns the URIs a script loads fresh: URIs with a Load edit
// not preceded by an Unload of the same URI (an unload-then-reload reuses a
// base URI and is not fresh).
func freshLoads(s *truechange.Script) map[uri.URI]bool {
	fresh := make(map[uri.URI]bool)
	unloaded := make(map[uri.URI]bool)
	for _, e := range s.Edits {
		switch ed := e.(type) {
		case truechange.Unload:
			unloaded[ed.Node.URI] = true
		case truechange.Load:
			if !unloaded[ed.Node.URI] {
				fresh[ed.Node.URI] = true
			}
		}
	}
	return fresh
}

// reserveScript advances alloc past every URI the script mentions.
func reserveScript(alloc *uri.Allocator, s *truechange.Script) {
	add := func(u uri.URI) { alloc.Reserve(u) }
	for _, e := range s.Edits {
		switch ed := e.(type) {
		case truechange.Detach:
			add(ed.Node.URI)
			add(ed.Parent.URI)
		case truechange.Attach:
			add(ed.Node.URI)
			add(ed.Parent.URI)
		case truechange.Load:
			add(ed.Node.URI)
			for _, k := range ed.Kids {
				add(k.URI)
			}
		case truechange.Unload:
			add(ed.Node.URI)
			for _, k := range ed.Kids {
				add(k.URI)
			}
		case truechange.Update:
			add(ed.Node.URI)
		}
	}
}

// renameScript returns a copy of the script with every URI in m replaced.
func renameScript(s *truechange.Script, m map[uri.URI]uri.URI) *truechange.Script {
	r := func(u uri.URI) uri.URI {
		if v, ok := m[u]; ok {
			return v
		}
		return u
	}
	rn := func(n truechange.NodeRef) truechange.NodeRef {
		n.URI = r(n.URI)
		return n
	}
	rkids := func(kids []truechange.KidArg) []truechange.KidArg {
		out := make([]truechange.KidArg, len(kids))
		for i, k := range kids {
			k.URI = r(k.URI)
			out[i] = k
		}
		return out
	}
	out := &truechange.Script{Edits: make([]truechange.Edit, len(s.Edits))}
	for i, e := range s.Edits {
		switch ed := e.(type) {
		case truechange.Detach:
			ed.Node, ed.Parent = rn(ed.Node), rn(ed.Parent)
			out.Edits[i] = ed
		case truechange.Attach:
			ed.Node, ed.Parent = rn(ed.Node), rn(ed.Parent)
			out.Edits[i] = ed
		case truechange.Load:
			ed.Node, ed.Kids = rn(ed.Node), rkids(ed.Kids)
			out.Edits[i] = ed
		case truechange.Unload:
			ed.Node, ed.Kids = rn(ed.Node), rkids(ed.Kids)
			out.Edits[i] = ed
		case truechange.Update:
			ed.Node = rn(ed.Node)
			out.Edits[i] = ed
		default:
			out.Edits[i] = e
		}
	}
	return out
}

// remapFreshCollisions renames theirs' fresh load URIs that collide with
// ours' fresh load URIs, drawing replacements from past every URI either
// script or the base tree mentions. Scripts produced by Merge (one shared
// allocator across both diffs) never collide; script-level callers may hand
// in independently produced scripts that do.
func remapFreshCollisions(base *tree.Node, ours, theirs *truechange.Script) *truechange.Script {
	la, lb := freshLoads(ours), freshLoads(theirs)
	var collide []uri.URI
	for u := range lb {
		if la[u] {
			collide = append(collide, u)
		}
	}
	if len(collide) == 0 {
		return theirs
	}
	sort.Slice(collide, func(i, j int) bool { return collide[i] < collide[j] })
	alloc := uri.NewAllocator()
	alloc.Reserve(base.MaxURI())
	reserveScript(alloc, ours)
	reserveScript(alloc, theirs)
	m := make(map[uri.URI]uri.URI, len(collide))
	for _, u := range collide {
		m[u] = alloc.Fresh()
	}
	return renameScript(theirs, m)
}
