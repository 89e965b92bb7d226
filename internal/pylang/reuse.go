package pylang

import (
	"strings"

	"repro/internal/tree"
)

// Statement reuse. Parse splits a module's tokens into top-level chunks:
// a chunk starts at a token in column 1 that opens a logical line (it is
// the first token, or follows a NEWLINE or DEDENT), is not a clause
// keyword continuing the previous statement (elif, else, except, finally)
// and does not follow a decorator line. At such a token the lexer is in
// its initial state — indent stack [0], no open bracket — so the tokens of
// a chunk, and the statements they parse into, depend on the chunk's text
// alone. The factory caches those statements under that text and clones
// them on a later hit instead of parsing again.

// stmtCacheBytes bounds the key bytes a factory's statement cache retains
// across both generations. One factory re-parsing a few dozen large files
// holds a few hundred kilobytes of distinct statement text; the trees
// behind a key take roughly 50 times its bytes.
const stmtCacheBytes = 1 << 20

// stmtCache maps the exact source text of a top-level chunk to the
// statements it parsed into. Two generations bound it: entries go into cur,
// and when cur's keys would pass half the bound, old is dropped and cur
// becomes old. A hit in old moves the entry back into cur, so chunks in use
// survive and chunks not seen for a whole generation are dropped.
type stmtCache struct {
	cur, old map[string][]*tree.Node
	curBytes int // key bytes in cur; old held at most half the bound too
}

// get returns the statements cached under key, promoting an entry found in
// the old generation.
func (c *stmtCache) get(key string) ([]*tree.Node, bool) {
	if stmts, ok := c.cur[key]; ok {
		return stmts, true
	}
	stmts, ok := c.old[key]
	if ok {
		delete(c.old, key)
		c.put(key, stmts)
	}
	return stmts, ok
}

// put caches stmts under a copy of key, so an entry does not pin the whole
// source text key was sliced from.
func (c *stmtCache) put(key string, stmts []*tree.Node) {
	const genBytes = stmtCacheBytes / 2
	if len(key) > genBytes {
		return
	}
	if c.curBytes+len(key) > genBytes {
		c.old, c.cur, c.curBytes = c.cur, nil, 0
	}
	if c.cur == nil {
		c.cur = make(map[string][]*tree.Node)
	}
	c.cur[strings.Clone(key)] = stmts
	c.curBytes += len(key)
}

// chunkStarts returns the indices of the tokens that start a top-level
// chunk, in order, followed by the index of the EOF token.
func chunkStarts(toks []Token) []int {
	var starts []int
	afterDecorator := false
	for i, t := range toks {
		if t.Col != 1 || i > 0 && toks[i-1].Kind != TokNewline && toks[i-1].Kind != TokDedent {
			continue
		}
		switch t.Kind {
		case TokNewline, TokIndent, TokDedent, TokEOF:
			continue
		case TokKeyword:
			switch t.Text {
			case "elif", "else", "except", "finally":
				afterDecorator = false
				continue
			}
		}
		if !afterDecorator {
			starts = append(starts, i)
		}
		afterDecorator = t.Kind == TokOp && t.Text == "@"
	}
	return append(starts, len(toks)-1)
}

// chunkKey returns the source text of the chunk from token start up to
// token end: from the start of start's line to the start of end's line, or
// to the end of the source when end is the EOF token. Calls must come in
// increasing token order.
func (p *parser) chunkKey(start, end int) string {
	from := p.lineStart(p.toks[start].Line)
	to := len(p.src)
	if p.toks[end].Kind != TokEOF {
		to = p.lineStart(p.toks[end].Line)
	}
	return p.src[from:to]
}

// lineStart returns the byte offset of line in the source, scanning on
// from the line the previous call asked for.
func (p *parser) lineStart(line int) int {
	for ; p.line < line; p.line++ {
		p.lineOff += strings.IndexByte(p.src[p.lineOff:], '\n') + 1
	}
	return p.lineOff
}
