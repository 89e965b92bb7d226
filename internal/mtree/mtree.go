// Package mtree implements the standard semantics of truechange edit
// scripts (paper §3.2, Figure 2): a mutable tree with an index of all
// loaded nodes, so that each edit operation executes in constant time.
//
// The semantics maintains two invariants that the truechange type system
// guarantees for well-typed scripts: links point to at most one subtree at
// any time (so a plain map per node suffices, never a multimap), and
// patching never fails. The semantics itself tracks neither detached roots
// nor empty slots; empty slots occur as nil child entries, and detached
// roots remain reachable through the node index until they are unloaded.
//
// Against the untyped real world — scripts from the wire, hand-written
// scripts, foreign trees — Theorem 3.6 offers no protection, so Patch is
// transactional: every applied edit is journaled with the exact state it
// overwrote (the operational form of truechange.Invert), and the first
// failing edit rolls the journal back, restoring the pre-patch tree
// exactly. Failures carry the edit index and operation kind (PatchError)
// and match derrors.ErrNonCompliantScript.
package mtree

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/derrors"
	"repro/internal/faultinject"
	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/uri"
)

// MNode is a mutable tree node: links to children and literal values can be
// updated destructively. An entry mapping a link to nil represents an empty
// slot; a missing entry means the node has no such link at all.
type MNode struct {
	Tag  sig.Tag
	URI  uri.URI
	Kids map[sig.Link]*MNode
	Lits map[sig.Link]any
}

// MTree is a mutable tree with a node index for constant-time access by
// URI. The root is the pre-defined node with URI 0 and the single child
// slot RootLink.
type MTree struct {
	sch    *sig.Schema
	root   *MNode
	index  map[uri.URI]*MNode
	faults *faultinject.Injector
}

// FaultSiteEdit is the fault-injection site Patch hits before every edit of
// a fault-injected tree (see InjectFaults): an Error fault armed there makes
// the edit fail, exercising the rollback path deterministically.
const FaultSiteEdit = "mtree/edit"

// InjectFaults arms the tree with a fault injector for tests: Patch hits
// FaultSiteEdit before applying each edit. A nil injector (the default)
// costs one nil check per edit.
func (mt *MTree) InjectFaults(in *faultinject.Injector) { mt.faults = in }

// rollbackCount counts Patch invocations, process-wide, that failed and
// rolled applied edits back. Exposed through Rollbacks so the engine's
// metrics endpoint can report structdiff_engine_rollbacks_total.
var rollbackCount atomic.Uint64

// Rollbacks returns the process-wide count of transactional Patch
// rollbacks (failed patches that had applied at least one edit).
func Rollbacks() uint64 { return rollbackCount.Load() }

// New returns an empty mutable tree: the pre-defined root node with its
// RootLink slot empty.
func New(sch *sig.Schema) *MTree {
	root := &MNode{
		Tag:  sig.RootTag,
		URI:  uri.Root,
		Kids: map[sig.Link]*MNode{sig.RootLink: nil},
		Lits: map[sig.Link]any{},
	}
	return &MTree{
		sch:   sch,
		root:  root,
		index: map[uri.URI]*MNode{uri.Root: root},
	}
}

// FromTree returns a mutable tree holding a copy of the immutable tree t
// attached under the root, with every node registered in the index under
// its existing URI.
func FromTree(sch *sig.Schema, t *tree.Node) (*MTree, error) {
	mt := New(sch)
	if t == nil {
		return mt, nil
	}
	top, err := mt.convert(t)
	if err != nil {
		return nil, err
	}
	mt.root.Kids[sig.RootLink] = top
	return mt, nil
}

func (mt *MTree) convert(t *tree.Node) (*MNode, error) {
	g := mt.sch.Lookup(t.Tag)
	if g == nil {
		return nil, fmt.Errorf("mtree: undeclared tag %s", t.Tag)
	}
	if len(g.Kids) != len(t.Kids) || len(g.Lits) != len(t.Lits) {
		return nil, fmt.Errorf("mtree: node %s does not match signature of %s", t.URI, t.Tag)
	}
	if _, dup := mt.index[t.URI]; dup {
		return nil, fmt.Errorf("mtree: duplicate URI %s", t.URI)
	}
	n := &MNode{
		Tag:  t.Tag,
		URI:  t.URI,
		Kids: make(map[sig.Link]*MNode, len(t.Kids)),
		Lits: make(map[sig.Link]any, len(t.Lits)),
	}
	mt.index[t.URI] = n
	for i, spec := range g.Kids {
		k, err := mt.convert(t.Kids[i])
		if err != nil {
			return nil, err
		}
		n.Kids[spec.Link] = k
	}
	for i, spec := range g.Lits {
		n.Lits[spec.Link] = t.Lits[i]
	}
	return n, nil
}

// Root returns the pre-defined root node.
func (mt *MTree) Root() *MNode { return mt.root }

// Top returns the subtree attached at the root's RootLink slot, or nil if
// the tree is empty.
func (mt *MTree) Top() *MNode { return mt.root.Kids[sig.RootLink] }

// Lookup returns the node registered under u, or nil.
func (mt *MTree) Lookup(u uri.URI) *MNode { return mt.index[u] }

// Size returns the number of indexed nodes, excluding the pre-defined root.
func (mt *MTree) Size() int { return len(mt.index) - 1 }

// PatchError reports a failed Patch: which edit failed, its operation
// kind, the underlying cause, and whether applied edits were rolled back
// (false only when the first edit failed, leaving nothing to undo — the
// tree is in its pre-patch state either way). It matches both
// derrors.ErrNonCompliantScript and the cause via errors.Is/As.
type PatchError struct {
	// EditIndex is the zero-based position of the failing edit.
	EditIndex int
	// Op is the operation kind of the failing edit: "detach", "attach",
	// "load", "unload", or "update".
	Op string
	// RolledBack reports whether previously applied edits were undone.
	RolledBack bool
	// Cause is the ProcessEdit error of the failing edit.
	Cause error
}

func (e *PatchError) Error() string {
	state := "tree unchanged"
	if e.RolledBack {
		state = "tree rolled back"
	}
	return fmt.Sprintf("mtree: edit #%d (%s): %v (%s)", e.EditIndex, e.Op, e.Cause, state)
}

// Unwrap lets errors.Is match both the non-compliance sentinel and the
// specific cause.
func (e *PatchError) Unwrap() []error { return []error{derrors.ErrNonCompliantScript, e.Cause} }

// opKind names an edit's operation for error reports.
func opKind(e truechange.Edit) string {
	switch e.(type) {
	case truechange.Detach:
		return "detach"
	case truechange.Attach:
		return "attach"
	case truechange.Load:
		return "load"
	case truechange.Unload:
		return "unload"
	case truechange.Update:
		return "update"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// undo is one journal entry of a transactional Patch: the exact state an
// applied edit overwrote, captured at apply time. Undoing by captured
// state rather than by truechange.InvertEdit is what makes the rollback
// exact even for scripts whose edits lie about the tree (a stale Update.Old,
// an Attach into an occupied slot): the inverse edit would restore the
// script's claim, the journal restores the truth.
type undo struct {
	kind   undoKind
	parent *MNode   // undoSlot: whose slot to restore
	link   sig.Link // undoSlot: which slot
	prev   *MNode   // undoSlot: the slot's previous occupant (may be nil)
	uri    uri.URI  // undoLoad / undoUnload: which index entry
	node   *MNode   // undoUnload / undoLits: the node to restore
	lits   []litUndo
}

type litUndo struct {
	link sig.Link
	val  any
}

type undoKind uint8

const (
	undoSlot   undoKind = iota // restore parent.Kids[link] = prev
	undoLoad                   // delete index[uri]
	undoUnload                 // restore index[uri] = node
	undoLits                   // restore node's literal values
)

// Patch applies the edit script to the tree, mutating it in place: the
// standard semantics ⟦∆⟧. It returns an error (⊥) if an edit refers to a
// missing node or link; the type system rules this out for well-typed,
// syntactically compliant scripts (Theorem 3.6).
//
// Patch is transactional: applied edits are journaled, and on the first
// failing edit the journal is rolled back before returning, so the tree is
// restored to its exact pre-patch state (same nodes, same index, same
// literals) — never left half-mutated. The returned error is a *PatchError
// carrying the edit index and operation kind; it matches
// derrors.ErrNonCompliantScript.
func (mt *MTree) Patch(s *truechange.Script) error {
	journal := make([]undo, 0, len(s.Edits))
	for i, e := range s.Edits {
		err := mt.faults.Hit(FaultSiteEdit)
		var u undo
		if err == nil {
			u, err = mt.applyEdit(e)
		}
		if err != nil {
			rolledBack := len(journal) > 0
			mt.rollback(journal)
			if rolledBack {
				rollbackCount.Add(1)
			}
			return &PatchError{EditIndex: i, Op: opKind(e), RolledBack: rolledBack, Cause: err}
		}
		journal = append(journal, u)
	}
	return nil
}

// rollback undoes the journaled edits in reverse order, restoring the
// exact pre-patch tree.
func (mt *MTree) rollback(journal []undo) {
	for i := len(journal) - 1; i >= 0; i-- {
		u := journal[i]
		switch u.kind {
		case undoSlot:
			u.parent.Kids[u.link] = u.prev
		case undoLoad:
			delete(mt.index, u.uri)
		case undoUnload:
			mt.index[u.uri] = u.node
		case undoLits:
			for _, l := range u.lits {
				u.node.Lits[l.link] = l.val
			}
		}
	}
}

// ProcessEdit applies a single edit to the tree, updating nodes and the
// index (Figure 2). Each edit is atomic: it either applies fully or
// returns an error leaving the tree untouched.
func (mt *MTree) ProcessEdit(e truechange.Edit) error {
	_, err := mt.applyEdit(e)
	return err
}

// applyEdit applies a single edit and returns the journal entry that
// undoes it. Every case validates before mutating, so a failed edit has no
// effect at all. The checks are at least as strict as complyEdit's
// (Definition 3.5), which keeps Comply and Patch in exact agreement: a
// script passes Comply iff it patches in full.
func (mt *MTree) applyEdit(e truechange.Edit) (undo, error) {
	switch ed := e.(type) {
	case truechange.Detach:
		par := mt.index[ed.Parent.URI]
		if par == nil {
			return undo{}, fmt.Errorf("detach: unknown parent %s", ed.Parent)
		}
		if par.Tag != ed.Parent.Tag {
			return undo{}, fmt.Errorf("detach: parent %s has tag %s, edit claims %s", ed.Parent.URI, par.Tag, ed.Parent.Tag)
		}
		prev, ok := par.Kids[ed.Link]
		if !ok {
			return undo{}, fmt.Errorf("detach: parent %s has no link %q", ed.Parent, ed.Link)
		}
		if prev == nil {
			return undo{}, fmt.Errorf("detach: slot %s.%s already empty", ed.Parent, ed.Link)
		}
		if prev.URI != ed.Node.URI || prev.Tag != ed.Node.Tag {
			return undo{}, fmt.Errorf("detach: slot %s.%s holds %s%s, edit claims %s", ed.Parent, ed.Link, prev.Tag, prev.URI, ed.Node)
		}
		par.Kids[ed.Link] = nil
		return undo{kind: undoSlot, parent: par, link: ed.Link, prev: prev}, nil

	case truechange.Attach:
		par := mt.index[ed.Parent.URI]
		if par == nil {
			return undo{}, fmt.Errorf("attach: unknown parent %s", ed.Parent)
		}
		if par.Tag != ed.Parent.Tag {
			return undo{}, fmt.Errorf("attach: parent %s has tag %s, edit claims %s", ed.Parent.URI, par.Tag, ed.Parent.Tag)
		}
		prev, ok := par.Kids[ed.Link]
		if !ok {
			return undo{}, fmt.Errorf("attach: parent %s has no link %q", ed.Parent, ed.Link)
		}
		if prev != nil {
			return undo{}, fmt.Errorf("attach: slot %s.%s already holds %s%s", ed.Parent, ed.Link, prev.Tag, prev.URI)
		}
		node := mt.index[ed.Node.URI]
		if node == nil {
			return undo{}, fmt.Errorf("attach: unknown node %s", ed.Node)
		}
		if node.Tag != ed.Node.Tag {
			return undo{}, fmt.Errorf("attach: node %s has tag %s, edit claims %s", ed.Node.URI, node.Tag, ed.Node.Tag)
		}
		par.Kids[ed.Link] = node
		return undo{kind: undoSlot, parent: par, link: ed.Link, prev: prev}, nil

	case truechange.Load:
		if _, dup := mt.index[ed.Node.URI]; dup {
			return undo{}, fmt.Errorf("load: URI %s already loaded", ed.Node.URI)
		}
		n := &MNode{
			Tag:  ed.Node.Tag,
			URI:  ed.Node.URI,
			Kids: make(map[sig.Link]*MNode, len(ed.Kids)),
			Lits: make(map[sig.Link]any, len(ed.Lits)),
		}
		for _, k := range ed.Kids {
			kid := mt.index[k.URI]
			if kid == nil {
				return undo{}, fmt.Errorf("load: unknown kid %s", k.URI)
			}
			n.Kids[k.Link] = kid
		}
		for _, l := range ed.Lits {
			n.Lits[l.Link] = l.Value
		}
		mt.index[ed.Node.URI] = n
		return undo{kind: undoLoad, uri: ed.Node.URI}, nil

	case truechange.Unload:
		n, ok := mt.index[ed.Node.URI]
		if !ok {
			return undo{}, fmt.Errorf("unload: unknown node %s", ed.Node)
		}
		if ed.Node.URI == uri.Root {
			return undo{}, fmt.Errorf("unload: the pre-defined root cannot be unloaded")
		}
		if n.Tag != ed.Node.Tag {
			return undo{}, fmt.Errorf("unload: node %s has tag %s, edit claims %s", ed.Node.URI, n.Tag, ed.Node.Tag)
		}
		for _, k := range ed.Kids {
			kid, ok := n.Kids[k.Link]
			if !ok {
				return undo{}, fmt.Errorf("unload: node %s has no link %q", ed.Node, k.Link)
			}
			if kid == nil || kid.URI != k.URI {
				return undo{}, fmt.Errorf("unload: node %s link %q does not hold %s", ed.Node, k.Link, k.URI)
			}
		}
		for _, l := range ed.Lits {
			v, ok := n.Lits[l.Link]
			if !ok {
				return undo{}, fmt.Errorf("unload: node %s has no literal %q", ed.Node, l.Link)
			}
			if !tree.LitEqual(v, l.Value) {
				return undo{}, fmt.Errorf("unload: node %s literal %q is %#v, edit claims %#v", ed.Node, l.Link, v, l.Value)
			}
		}
		delete(mt.index, ed.Node.URI)
		return undo{kind: undoUnload, uri: ed.Node.URI, node: n}, nil

	case truechange.Update:
		n := mt.index[ed.Node.URI]
		if n == nil {
			return undo{}, fmt.Errorf("update: unknown node %s", ed.Node)
		}
		if n.Tag != ed.Node.Tag {
			return undo{}, fmt.Errorf("update: node %s has tag %s, edit claims %s", ed.Node.URI, n.Tag, ed.Node.Tag)
		}
		for _, l := range ed.Old {
			v, ok := n.Lits[l.Link]
			if !ok {
				return undo{}, fmt.Errorf("update: node %s has no literal %q", ed.Node, l.Link)
			}
			if !tree.LitEqual(v, l.Value) {
				return undo{}, fmt.Errorf("update: node %s literal %q is %#v, edit claims old value %#v", ed.Node, l.Link, v, l.Value)
			}
		}
		// Validate every link before mutating any, so a failed update is
		// side-effect free and needs no journal entry of its own.
		old := make([]litUndo, len(ed.New))
		for i, l := range ed.New {
			v, ok := n.Lits[l.Link]
			if !ok {
				return undo{}, fmt.Errorf("update: node %s has no literal %q", ed.Node, l.Link)
			}
			old[i] = litUndo{link: l.Link, val: v}
		}
		for _, l := range ed.New {
			n.Lits[l.Link] = l.Value
		}
		return undo{kind: undoLits, node: n, lits: old}, nil

	default:
		return undo{}, fmt.Errorf("unknown edit kind %T", e)
	}
}

// ToTree converts the attached tree back into an immutable tree,
// preserving URIs. It fails if the tree contains empty slots (is open).
func (mt *MTree) ToTree(alloc *uri.Allocator) (*tree.Node, error) {
	top := mt.Top()
	if top == nil {
		return nil, fmt.Errorf("mtree: tree is empty")
	}
	return mt.toTree(top, alloc)
}

func (mt *MTree) toTree(n *MNode, alloc *uri.Allocator) (*tree.Node, error) {
	g := mt.sch.Lookup(n.Tag)
	if g == nil {
		return nil, fmt.Errorf("mtree: undeclared tag %s", n.Tag)
	}
	kids := make([]*tree.Node, len(g.Kids))
	for i, spec := range g.Kids {
		k, ok := n.Kids[spec.Link]
		if !ok {
			return nil, fmt.Errorf("mtree: node %s lacks link %q", n.URI, spec.Link)
		}
		if k == nil {
			return nil, fmt.Errorf("mtree: node %s has an empty slot %q", n.URI, spec.Link)
		}
		t, err := mt.toTree(k, alloc)
		if err != nil {
			return nil, err
		}
		kids[i] = t
	}
	lits := make([]any, len(g.Lits))
	for i, spec := range g.Lits {
		v, ok := n.Lits[spec.Link]
		if !ok {
			return nil, fmt.Errorf("mtree: node %s lacks literal %q", n.URI, spec.Link)
		}
		lits[i] = v
	}
	return tree.NewWithURI(mt.sch, alloc, n.URI, n.Tag, kids, lits, tree.SHA256)
}

// EqualTree reports whether the attached tree equals the immutable tree t,
// comparing tags, literals, and shape but ignoring URIs (the ≃ relation of
// Conjecture 4.3).
func (mt *MTree) EqualTree(t *tree.Node) bool {
	return mt.equalNode(mt.Top(), t)
}

func (mt *MTree) equalNode(m *MNode, t *tree.Node) bool {
	if m == nil || t == nil {
		return m == nil && t == nil
	}
	if m.Tag != t.Tag {
		return false
	}
	g := mt.sch.Lookup(t.Tag)
	if g == nil || len(g.Kids) != len(t.Kids) || len(g.Lits) != len(t.Lits) {
		return false
	}
	for i, spec := range g.Lits {
		v, ok := m.Lits[spec.Link]
		if !ok || !tree.LitEqual(v, t.Lits[i]) {
			return false
		}
	}
	for i, spec := range g.Kids {
		k, ok := m.Kids[spec.Link]
		if !ok || !mt.equalNode(k, t.Kids[i]) {
			return false
		}
	}
	return true
}

// String renders the attached tree, with ∅ for empty slots. It writes
// into one builder, so rendering costs time linear in the output even for
// deep trees.
func (mt *MTree) String() string {
	top := mt.Top()
	if top == nil {
		return "ε"
	}
	var b strings.Builder
	mt.writeNode(&b, top)
	return b.String()
}

func (mt *MTree) writeNode(b *strings.Builder, n *MNode) {
	g := mt.sch.Lookup(n.Tag)
	b.WriteString(string(n.Tag))
	b.WriteString(n.URI.String())
	if g == nil {
		b.WriteString("<?>")
		return
	}
	if len(g.Lits) > 0 {
		b.WriteByte('{')
		for i, spec := range g.Lits {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%s=%#v", spec.Link, n.Lits[spec.Link])
		}
		b.WriteByte('}')
	}
	if len(g.Kids) > 0 {
		b.WriteByte('(')
		for i, spec := range g.Kids {
			if i > 0 {
				b.WriteString(", ")
			}
			if k := n.Kids[spec.Link]; k == nil {
				b.WriteString("∅")
			} else {
				mt.writeNode(b, k)
			}
		}
		b.WriteByte(')')
	}
}
