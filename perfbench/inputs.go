package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/pylang"
	"repro/internal/sig"
	"repro/internal/tree"
)

// params sizes one workload's generated history and its op shape.
type params struct {
	files              int // modules in the repository
	changes            int // file changes in the history
	minNodes, maxNodes int // module sizes at the start of the history
	maxEdits           int // generator mutations per change, drawn from 1..maxEdits
	window             int // batch: changes per DiffBatch call
	round              int // service: requests between two oracle checkpoints
}

// treeChange is one change of a file: the generator's tree before and
// after 1..maxEdits mutations.
type treeChange struct {
	file          int
	before, after *tree.Node
}

// treeHistory is a generated history kept as the generator's own trees,
// which carry SHA-256 digests from construction.
type treeHistory struct {
	sch     *sig.Schema
	initial []*tree.Node
	changes []treeChange
}

// textHistory is a generated history kept only as rendered Python source;
// the program sees nothing but the text.
type textHistory struct {
	initial []string
	changes []textChange
	nodes   int // nodes of all generated versions, for the summary
}

type textChange struct {
	file int
	text string
}

// generate evolves a seeded repository through p.changes file changes and
// hands every change to visit in history order. It returns the initial
// versions of the files.
//
// Module sizes are stratified over [minNodes, maxNodes] and files are
// touched in rounds of a random permutation, so every seed yields the same
// spread of file sizes and the same number of changes per file: seeds
// differ in content, not in how much work their changes are.
func generate(seed int64, p params, f *pylang.Factory, visit func(treeChange)) []*tree.Node {
	rng := rand.New(rand.NewSource(seed))
	g := corpus.NewTreeGen(rng, f)
	cur := make([]*tree.Node, p.files)
	for i := range cur {
		span := float64(p.maxNodes - p.minNodes)
		cur[i] = g.Module(p.minNodes + int(span*(float64(i)+rng.Float64())/float64(p.files)))
	}
	initial := append([]*tree.Node(nil), cur...)
	var order []int
	for len(order) < p.changes {
		order = append(order, rng.Perm(p.files)...)
	}
	for _, file := range order[:p.changes] {
		ch := treeChange{file: file, before: cur[file], after: cur[file]}
		for e := 1 + rng.Intn(p.maxEdits); e > 0; e-- {
			ch.after, _ = g.Mutate(ch.after)
		}
		cur[file] = ch.after
		visit(ch)
	}
	return initial
}

func generateTrees(seed int64, p params) *treeHistory {
	f := pylang.NewFactory()
	h := &treeHistory{sch: f.Schema()}
	h.initial = generate(seed, p, f, func(ch treeChange) { h.changes = append(h.changes, ch) })
	return h
}

func generateText(seed int64, p params) *textHistory {
	h := &textHistory{}
	initial := generate(seed, p, pylang.NewFactory(), func(ch treeChange) {
		h.changes = append(h.changes, textChange{file: ch.file, text: pylang.Render(ch.after)})
		h.nodes += ch.after.Size()
	})
	for _, t := range initial {
		h.initial = append(h.initial, pylang.Render(t))
		h.nodes += t.Size()
	}
	return h
}

// fingerprint is a SHA-256 over everything the program is fed: the source
// text for replay, the generator's content digests for the tree workloads.
// A change to the generator or to pylang.Render changes it, which tells a
// changed workload apart from a changed speed.
func (h *textHistory) fingerprint() string {
	d := sha256.New()
	for i, s := range h.initial {
		fmt.Fprintf(d, "file %d %d\n%s", i, len(s), s)
	}
	for _, ch := range h.changes {
		fmt.Fprintf(d, "change %d %d\n%s", ch.file, len(ch.text), ch.text)
	}
	return hex.EncodeToString(d.Sum(nil))
}

func (h *treeHistory) fingerprint() string {
	d := sha256.New()
	for i, t := range h.initial {
		fmt.Fprintf(d, "file %d %x\n", i, t.ExactHash())
	}
	for _, ch := range h.changes {
		fmt.Fprintf(d, "change %d %x\n", ch.file, ch.after.ExactHash())
	}
	return hex.EncodeToString(d.Sum(nil))
}

func (h *treeHistory) nodes() int {
	n := 0
	for _, t := range h.initial {
		n += t.Size()
	}
	for _, ch := range h.changes {
		n += ch.after.Size()
	}
	return n
}

// sampleTargets returns up to k target trees spread over the history.
func (h *treeHistory) sampleTargets(k int) []*tree.Node {
	var out []*tree.Node
	stride := max(1, len(h.changes)/k)
	for i := 0; i < len(h.changes) && len(out) < k; i += stride {
		out = append(out, h.changes[i].after)
	}
	return out
}
