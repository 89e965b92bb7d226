package pylang

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tree"
	"repro/internal/uri"
)

// reuseBase exercises every construct whose text crosses a line start:
// decorators, clause keywords, bracketed and backslash continuations,
// triple-quoted strings, comments at column 1 and a duplicated statement.
const reuseBase = `import os
from a import b, c
x = y = [1,
    2, 3]
total = 1 + \
    2
pair = (1,
2)
w = 1 + \
3
@decorator
@other(1,
  2)
def f(a, b=2):
    """doc
string"""
    return a

if x:
    pass
elif y:
    pass
else:
    z = 1

try:
    f()
except ValueError as e:
    pass
finally:
    done()
# a comment at column 1
x = y = [1,
    2, 3]
class C(Base):
    def m(self): return 1
s = """top
level
"""; t = 2
`

// reuseHistory is a sequence of versions of reuseBase; each differs from
// the one before in a way that moves, merges or splits chunks.
func reuseHistory() []string {
	v := []string{reuseBase}
	edit := func(old, new string) {
		prev := v[len(v)-1]
		if !strings.Contains(prev, old) {
			panic(fmt.Sprintf("reuseHistory: %q not in version %d", old, len(v)-1))
		}
		v = append(v, strings.Replace(prev, old, new, 1))
	}
	edit("return a", "return a + 1")                     // one statement changes
	edit("import os\n", "import os\nimport os\n")        // a duplicated statement
	edit("elif y:\n    pass\n", "")                      // if/else loses its elif
	edit("else:\n    z = 1\n", "else:\n    z = 2\n")     // the merged chunk changes
	edit("def f(a, b=2):", "@third\ndef f(a, b=2):")     // a third decorator
	edit("@decorator\n", "")                             // the chunk starts at @other
	edit("total = 1 + \\\n    2\n", "total = 1 + 2\n")   // the continuation joins
	edit("class C(Base):", "@dataclass\nclass C(Base):") // def after a chunk start
	edit("# a comment at column 1\n", "")                // the comment goes
	edit("finally:\n    done()\n", "")                   // try loses finally
	edit("s = \"\"\"top", "s = \"\"\"TOP")               // a triple-quoted string
	v = append(v, strings.TrimSuffix(v[len(v)-1], "\n")) // no final newline
	edit("t = 2", "t = 3")                               // the last byte changes
	v = append(v, reuseBase)                             // back to the start
	return v
}

// nodeSet returns the nodes of t by pointer.
func nodeSet(t *tree.Node) map[*tree.Node]bool {
	s := make(map[*tree.Node]bool, t.Size())
	tree.Walk(t, func(n *tree.Node) { s[n] = true })
	return s
}

// TestStmtReuseMatchesFreshParse parses a history of versions with one
// factory and checks each tree against a fresh factory's: equal, sharing no
// node with the previous version or within itself, and every URI fresh.
// Every chunk of the last version must then be cached, continuation lines
// and decorators included.
func TestStmtReuseMatchesFreshParse(t *testing.T) {
	warm := NewFactory()
	var prev *tree.Node
	for i, src := range reuseHistory() {
		got, err := Parse(src, warm)
		if err != nil {
			t.Fatalf("version %d: warm parse: %v", i, err)
		}
		want, _, err := ParseNew(src)
		if err != nil {
			t.Fatalf("version %d: fresh parse: %v", i, err)
		}
		if !tree.Equal(got, want) {
			t.Fatalf("version %d: warm parse differs from fresh parse\nwarm:  %s\nfresh: %s", i, got, want)
		}
		seen := make(map[*tree.Node]bool)
		uris := make(map[uri.URI]bool)
		tree.Walk(got, func(n *tree.Node) {
			if seen[n] {
				t.Errorf("version %d: node %s occurs twice in one tree", i, n.URI)
			}
			if uris[n.URI] {
				t.Errorf("version %d: URI %s occurs twice", i, n.URI)
			}
			seen[n], uris[n.URI] = true, true
		})
		if prev != nil {
			old := nodeSet(prev)
			tree.Walk(got, func(n *tree.Node) {
				if old[n] {
					t.Errorf("version %d shares node %s with version %d", i, n.URI, i-1)
				}
			})
		}
		prev = got
	}
	if cached, total := CachedChunks(warm, reuseBase); cached != total {
		t.Errorf("%d of %d chunks of the last version are cached, want all", cached, total)
	}
}

// TestStmtReuseErrorsMatchFreshParse checks that a factory that has cached
// the statements of valid versions reports the same lex and parse errors,
// at the same positions, as a fresh factory.
func TestStmtReuseErrorsMatchFreshParse(t *testing.T) {
	bad := []string{
		reuseBase + "else:\n    pass\n",                            // a clause with no statement
		reuseBase + "@decorator\nx = 1\n",                          // a decorator on an assignment
		strings.Replace(reuseBase, "return a", "return a +", 1),    // an error inside a cached chunk's text
		strings.Replace(reuseBase, "pass\nelif", "pass\n elif", 1), // an inconsistent dedent
		"  " + reuseBase,                  // an unexpected indent
		reuseBase + "s = 'unterminated\n", // a lex error after cached chunks
		reuseBase + "x = (1,\n",           // an unclosed bracket at EOF
		strings.Replace(reuseBase, "try:\n    f()\n", "try:\n    f()\nx = 1\n", 1), // try without its handlers
	}
	warm := NewFactory()
	for _, src := range reuseHistory() {
		if _, err := Parse(src, warm); err != nil {
			t.Fatal(err)
		}
	}
	for i, src := range bad {
		_, _, ferr := ParseNew(src)
		if ferr == nil {
			t.Fatalf("case %d: fresh parse succeeded, want an error", i)
		}
		for try := 0; try < 2; try++ { // the second parse sees what the first cached
			if _, werr := Parse(src, warm); !reflect.DeepEqual(werr, ferr) {
				t.Errorf("case %d, warm parse %d: error %v, fresh error %v", i, try+1, werr, ferr)
			}
		}
	}
}

// TestChunkStarts pins the boundary rule: a chunk starts at a column-1
// token opening a logical line, but not at a clause keyword and not after
// a decorator line.
func TestChunkStarts(t *testing.T) {
	toks, err := Lex(reuseBase)
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	starts := chunkStarts(toks)
	for _, i := range starts[:len(starts)-1] {
		lines = append(lines, toks[i].Line)
	}
	want := []int{1, 2, 3, 5, 7, 9, 11, 19, 26, 33, 35, 37}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("chunk start lines = %v, want %v", lines, want)
	}
	if last := starts[len(starts)-1]; toks[last].Kind != TokEOF {
		t.Errorf("last start is %s, want EOF", toks[last])
	}
}

// TestStmtCacheBound floods one factory with distinct modules: the key
// bytes it retains never pass stmtCacheBytes, and re-parsing the latest
// module still hits for every statement.
func TestStmtCacheBound(t *testing.T) {
	module := func(i int) string {
		var b strings.Builder
		for j := 0; j < 40; j++ {
			fmt.Fprintf(&b, "if v%d_%d:\n    pass\nelse:\n    w = %q\n", i, j, strings.Repeat("w", 200))
		}
		return b.String()
	}
	f := NewFactory()
	flooded := 0
	var last string
	for i := 0; flooded < 3*stmtCacheBytes; i++ {
		last = module(i)
		if _, err := Parse(last, f); err != nil {
			t.Fatal(err)
		}
		flooded += len(last)
		if held := keyBytes(f.stmts.cur) + keyBytes(f.stmts.old); held > stmtCacheBytes {
			t.Fatalf("after %d modules: %d key bytes retained, bound %d", i+1, held, stmtCacheBytes)
		}
	}
	// A miss on an if/else draws a URI for a discarded empty orelse, so a
	// parse draws exactly one URI per node only when every chunk hits.
	before := f.Alloc().Peek()
	mod, err := Parse(last, f)
	if err != nil {
		t.Fatal(err)
	}
	if drawn := int(f.Alloc().Peek() - before); drawn != mod.Size() {
		t.Errorf("re-parse drew %d URIs for %d nodes: some statements missed", drawn, mod.Size())
	}
	fresh := NewFactory()
	before = fresh.Alloc().Peek()
	if mod, _ := Parse(last, fresh); int(fresh.Alloc().Peek()-before) == mod.Size() {
		t.Error("a fresh parse drew one URI per node: the hit check above cannot tell hits from misses")
	}
}

// TestStmtCachePromotesOld checks the two generations: an entry found in
// the old generation moves to the current one and survives the next
// rotation, while an entry not seen for a generation is dropped.
func TestStmtCachePromotesOld(t *testing.T) {
	var c stmtCache
	stmts := []*tree.Node{NewFactory().Pass()}
	c.put("keep", stmts)
	c.put("drop", stmts)
	filler := strings.Repeat("x", stmtCacheBytes/2-4)
	c.put(filler, stmts) // rotates: keep and drop are now old
	if _, ok := c.old["keep"]; !ok {
		t.Fatal("rotation lost the current generation")
	}
	if _, ok := c.get("keep"); !ok {
		t.Fatal("miss on an old entry")
	}
	c.put(filler+"y", stmts) // rotates again: drop is gone, keep is old
	if _, ok := c.get("drop"); ok {
		t.Error("an entry not hit for a generation survived")
	}
	if _, ok := c.get("keep"); !ok {
		t.Error("a promoted entry did not survive the next rotation")
	}
	if held := keyBytes(c.cur) + keyBytes(c.old); held > stmtCacheBytes {
		t.Errorf("%d key bytes retained, bound %d", held, stmtCacheBytes)
	}
	if c.curBytes != keyBytes(c.cur) {
		t.Errorf("curBytes = %d, keys of cur hold %d", c.curBytes, keyBytes(c.cur))
	}
}

// keyBytes sums the lengths of a generation's keys.
func keyBytes(gen map[string][]*tree.Node) int {
	n := 0
	for k := range gen {
		n += len(k)
	}
	return n
}
