package pylang_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/pylang"
	"repro/internal/tree"
)

// historyOptions is a small generated repository: enough commits that
// every file changes several times.
func historyOptions(seed int64) corpus.Options {
	return corpus.Options{
		Seed:              seed,
		Files:             4,
		Commits:           30,
		MaxFilesPerCommit: 2,
		MinNodes:          200,
		MaxNodes:          900,
		MaxEditsPerFile:   3,
	}
}

// TestParseReuseOverHistories walks generated histories with one factory,
// the way an incremental consumer re-parses each new version, and checks
// every parse against a fresh factory's: the trees must be Equal, so their
// digests agree. It also checks that the walk reused most statements, so
// the comparison is not between two cold parses.
func TestParseReuseOverHistories(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		h := corpus.Generate(historyOptions(seed))
		warm := pylang.NewFactory()
		seen := make(map[string]bool)
		cached, total := 0, 0
		parse := func(src string) {
			t.Helper()
			c, n := pylang.CachedChunks(warm, src)
			cached, total = cached+c, total+n
			got, err := pylang.Parse(src, warm)
			if err != nil {
				t.Fatalf("seed %d: warm parse: %v", seed, err)
			}
			want, _, err := pylang.ParseNew(src)
			if err != nil {
				t.Fatalf("seed %d: fresh parse: %v", seed, err)
			}
			if !tree.Equal(got, want) {
				t.Fatalf("seed %d: warm parse differs from fresh parse of\n%s", seed, src)
			}
		}
		for _, fc := range h.Changes() {
			before, after := corpus.RenderChange(fc)
			if !seen[fc.Path] {
				seen[fc.Path] = true
				parse(before)
			}
			parse(after)
		}
		if cached*2 < total {
			t.Errorf("seed %d: %d of %d chunks were cached before their parse, want most", seed, cached, total)
		}
	}
}

// FuzzParseReuse parses a and then b twice with one factory, and b with a
// fresh factory. Every parse of b must fail with the fresh parse's error or
// yield a tree Equal to its tree, and the warm trees of b share no node
// with the tree of a.
func FuzzParseReuse(f *testing.F) {
	for _, seed := range reuseSeeds() {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		warm := pylang.NewFactory()
		ta, _ := pylang.Parse(a, warm)
		want, _, ferr := pylang.ParseNew(b)
		for try := 1; try <= 2; try++ { // the second parse sees what the first cached
			got, werr := pylang.Parse(b, warm)
			if werr != nil || ferr != nil {
				if !reflect.DeepEqual(werr, ferr) {
					t.Fatalf("warm parse %d: error %v, fresh error %v", try, werr, ferr)
				}
				continue
			}
			if !tree.Equal(got, want) {
				t.Fatalf("warm parse %d differs from fresh parse\nwarm:  %s\nfresh: %s", try, got, want)
			}
			if ta != nil {
				old := make(map[*tree.Node]bool, ta.Size())
				tree.Walk(ta, func(n *tree.Node) { old[n] = true })
				tree.Walk(got, func(n *tree.Node) {
					if old[n] {
						t.Fatalf("the trees of a and b share node %s", n.URI)
					}
				})
			}
		}
	})
}

// reuseSeeds pairs inputs from the robustness tests (prefixes of the
// sample module, token soup) and rendered corpus changes.
func reuseSeeds() [][2]string {
	src := pylang.SampleSource
	seeds := [][2]string{
		{src, src},
		{src, strings.Replace(src, "import os", "import sys", 1)},
		{src, src[:len(src)/2]},
		{src[:len(src)/3], src},
		{"@d\ndef f(): pass\n", "@d\n@e\ndef f(): pass\n"},
		{"if a:\n    pass\nx = 1\n", "if a:\n    pass\nelse:\n    pass\nx = 1\n"},
		{"x = (1,\n2)\ny = 1 + \\\n3\n", "x = (1,\n2)\ny = 1 + \\\n4\n"},
		{"x = 1\nelse:\n    pass\n", "x = 1\nelse:\n    pass\n"},
		{"x = 1", "x = 2"},
	}
	pieces := []string{
		"def", "class", "if", "else", "elif", "try", "except", "finally",
		"x", "y", "123", `"str"`, "(", ")", ":", ",", "=", "@", ";",
		"\n", "\n    ", "\\\n",
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 8; i++ {
		var b strings.Builder
		for j := 1 + rng.Intn(30); j > 0; j-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
			b.WriteByte(' ')
		}
		seeds = append(seeds, [2]string{src, b.String()})
	}
	opts := historyOptions(4)
	opts.Commits = 3
	for _, fc := range corpus.Generate(opts).Changes() {
		before, after := corpus.RenderChange(fc)
		seeds = append(seeds, [2]string{before, after})
	}
	return seeds
}
