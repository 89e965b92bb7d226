package tree_test

import (
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/pylang"
	"repro/internal/tree"
	"repro/internal/uri"
)

// maxAllocsPerNode is what building a node may cost on the heap: the node,
// its kid slice, its literal slice and its digest string. Hashing itself
// must allocate nothing beyond the digest.
const maxAllocsPerNode = 4

// TestCloneAllocsPerNode guards the allocation-free hashing path: cloning
// a generated Python module rehashes every node, and must stay within
// maxAllocsPerNode heap allocations per node under both hash kinds.
func TestCloneAllocsPerNode(t *testing.T) {
	mod := corpus.NewTreeGen(rand.New(rand.NewSource(1)), pylang.NewFactory()).Module(2000)
	for _, kind := range []tree.HashKind{tree.SHA256, tree.FNV64} {
		alloc := uri.NewAllocator()
		perNode := testing.AllocsPerRun(5, func() { tree.Clone(mod, alloc, kind) }) / float64(mod.Size())
		t.Logf("kind %d: %.2f allocs/node over %d nodes", kind, perNode, mod.Size())
		if perNode > maxAllocsPerNode {
			t.Errorf("kind %d: Clone made %.2f allocs/node, want at most %d", kind, perNode, maxAllocsPerNode)
		}
	}
}
