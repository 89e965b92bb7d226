package truediff

import (
	"container/heap"
	"testing"

	"repro/internal/exp"
	"repro/internal/tree"
)

// newPreferringShare returns a registry with its preference index on and
// its share for key k.
func newPreferringShare() (*registry, *share) {
	r := newRegistry()
	r.preferring = true
	return &r, r.shareFor("k")
}

func TestShareRegisterAndTake(t *testing.T) {
	b := exp.NewBuilder()
	n1 := b.MustN(exp.Num, 1)
	n2 := b.MustN(exp.Num, 2)
	n3 := b.MustN(exp.Num, 1)

	r, s := newPreferringShare()
	r.register(s, n1)
	r.register(s, n2)
	r.register(s, n3)
	r.register(s, n1) // duplicate registration is a no-op
	if s.avail != 3 {
		t.Errorf("avail = %d, want 3", s.avail)
	}

	// Preferred lookup finds the exact-literal candidate.
	if got, _ := r.takePreferred(n2.ExactHash()); got != n2 {
		t.Errorf("takePreferred = %v, want n2", got)
	}
	// n2 is consumed: a second preferred take for its key fails.
	if got, _ := r.takePreferred(n2.ExactHash()); got != nil {
		t.Errorf("consumed candidate returned again: %v", got)
	}
	// takeAny pops in registration order, skipping consumed entries.
	if got, _ := r.takeAny(s); got != n1 {
		t.Errorf("takeAny = %v, want n1", got)
	}
	if got, _ := r.takeAny(s); got != n3 {
		t.Errorf("takeAny = %v, want n3", got)
	}
	if got, _ := r.takeAny(s); got != nil {
		t.Errorf("exhausted share returned %v", got)
	}
	if s.avail != 0 {
		t.Errorf("avail = %d after exhaustion, want 0", s.avail)
	}
}

func TestShareRemoveAvailable(t *testing.T) {
	b := exp.NewBuilder()
	n1 := b.MustN(exp.Num, 7)
	n2 := b.MustN(exp.Num, 7)
	r, s := newPreferringShare()
	r.register(s, n1)
	r.register(s, n2)
	r.remove(n1)
	if got, _ := r.takePreferred(n1.ExactHash()); got != n2 {
		t.Errorf("preferred take after removal = %v, want n2", got)
	}
	if got, _ := r.takeAny(s); got != nil {
		t.Errorf("take after exhaustion = %v", got)
	}
}

func TestShareReregistration(t *testing.T) {
	// A node removed from a share may be registered again (the undo path
	// of preemptive assignments); lazy deletion must not hide it.
	b := exp.NewBuilder()
	n := b.MustN(exp.Var, "x")
	r, s := newPreferringShare()
	r.register(s, n)
	r.remove(n)
	r.register(s, n)
	if got, _ := r.takeAny(s); got != n {
		t.Errorf("re-registered node not available: %v", got)
	}
}

func TestRegistryShareIdentity(t *testing.T) {
	r := newRegistry()
	a := r.shareFor("h1")
	b := r.shareFor("h1")
	c := r.shareFor("h2")
	if a != b {
		t.Error("same key must return the same share")
	}
	if a == c {
		t.Error("different keys must return different shares")
	}
	if r.lookup("h1") != a || r.lookup("h3") != nil {
		t.Error("lookup wrong")
	}
}

func TestNodeHeapOrdering(t *testing.T) {
	g := exp.NewGen(1)
	leaf1 := g.Tree(1)
	leaf2 := g.Tree(1)
	big := g.Tree(40)
	h := &nodeHeap{}
	for _, n := range []*tree.Node{leaf1, big, leaf2} {
		heap.Push(h, n)
	}
	if got := heap.Pop(h).(*tree.Node); got != big {
		t.Error("tallest should pop first")
	}
	second := heap.Pop(h).(*tree.Node)
	third := heap.Pop(h).(*tree.Node)
	if second != leaf1 || third != leaf2 {
		t.Error("equal heights should pop in insertion order")
	}
	if h.Len() != 0 {
		t.Error("heap should be empty")
	}
}
