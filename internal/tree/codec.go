package tree

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/derrors"
	"repro/internal/sig"
	"repro/internal/uri"
)

// This file provides two interchange formats for trees:
//
//   - an S-expression text format with a parser, so trees can be stored and
//     reloaded (used by tooling and tests);
//   - a Graphviz DOT export for visualizing trees and diffs.
//
// The S-expression grammar is
//
//	tree    := '(' tag item* ')'
//	item    := tree | literal
//	literal := string | int | float | bool-sym
//
// Literals appear in signature order before/between subtrees in any order;
// decoding reassembles them by the schema's signature. URIs are not part of
// the format: decoding allocates fresh ones.

// MaxSExprDepth is the deepest nesting DecodeSExpr accepts: a chain of
// MaxSExprDepth nodes decodes, one more fails with derrors.ErrTreeTooDeep.
// The decoder is where untrusted trees enter (the diff service decodes
// request bodies with it), and every diff phase recurses over the tree, so
// an unbounded depth lets one request overflow the goroutine stack — a
// fatal error no recover can catch. The limit sits far above the trees the
// repository builds (a JSON array of n elements nests n deep) and far
// below that failure: a diff of a chain this deep uses about 4 MiB of
// stack, where a 2M-node chain overflowed Go's 1 GiB maximum. The differ
// enforces the same limit on trees built in-process, from their cached
// height.
const MaxSExprDepth = 10000

// EncodeSExpr renders the tree as an S-expression.
func EncodeSExpr(n *Node) string {
	var b strings.Builder
	encodeSExpr(n, &b)
	return b.String()
}

func encodeSExpr(n *Node, b *strings.Builder) {
	b.WriteByte('(')
	b.WriteString(string(n.Tag))
	for _, l := range n.Lits {
		b.WriteByte(' ')
		switch v := l.(type) {
		case string:
			b.WriteString(strconv.Quote(v))
		case int64:
			b.WriteString(strconv.FormatInt(v, 10))
		case float64:
			// NaN and ±Inf format as words ParseFloat accepts back; only
			// finite integral values need the ".0" marker that keeps them
			// from re-parsing as int64.
			s := strconv.FormatFloat(v, 'g', -1, 64)
			if !math.IsNaN(v) && !math.IsInf(v, 0) && !strings.ContainsAny(s, ".eE") {
				s += ".0"
			}
			b.WriteString(s)
		case bool:
			if v {
				b.WriteString("#t")
			} else {
				b.WriteString("#f")
			}
		}
	}
	for _, k := range n.Kids {
		b.WriteByte(' ')
		encodeSExpr(k, b)
	}
	b.WriteByte(')')
}

// DecodeSExpr parses an S-expression produced by EncodeSExpr, validating
// against the schema and allocating fresh URIs.
func DecodeSExpr(src string, sch *sig.Schema, alloc *uri.Allocator) (*Node, error) {
	p := &sexprParser{src: src}
	n, err := p.tree(sch, alloc, 1)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("tree: trailing input at offset %d", p.pos)
	}
	return n, nil
}

type sexprParser struct {
	src string
	pos int
}

func (p *sexprParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\n' || p.src[p.pos] == '\t' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *sexprParser) errf(format string, args ...any) error {
	return fmt.Errorf("tree: sexpr offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *sexprParser) tree(sch *sig.Schema, alloc *uri.Allocator, depth int) (*Node, error) {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '(' {
		return nil, p.errf("expected '('")
	}
	if depth > MaxSExprDepth {
		return nil, fmt.Errorf("tree: sexpr offset %d: %w (limit %d)", p.pos, derrors.ErrTreeTooDeep, MaxSExprDepth)
	}
	p.pos++
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && !strings.ContainsRune(" \t\n\r()", rune(p.src[p.pos])) {
		p.pos++
	}
	tag := sig.Tag(p.src[start:p.pos])
	if tag == "" {
		return nil, p.errf("missing tag")
	}
	var kids []*Node
	var lits []any
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return nil, p.errf("unterminated tree for %s", tag)
		}
		c := p.src[p.pos]
		if c == ')' {
			p.pos++
			return New(sch, alloc, tag, kids, lits)
		}
		if c == '(' {
			k, err := p.tree(sch, alloc, depth+1)
			if err != nil {
				return nil, err
			}
			kids = append(kids, k)
			continue
		}
		l, err := p.literal()
		if err != nil {
			return nil, err
		}
		lits = append(lits, l)
	}
}

func (p *sexprParser) literal() (any, error) {
	c := p.src[p.pos]
	switch {
	case c == '"':
		end := p.pos + 1
		for end < len(p.src) {
			if p.src[end] == '\\' {
				end += 2
				continue
			}
			if p.src[end] == '"' {
				break
			}
			end++
		}
		if end >= len(p.src) {
			return nil, p.errf("unterminated string")
		}
		s, err := strconv.Unquote(p.src[p.pos : end+1])
		if err != nil {
			return nil, p.errf("bad string literal: %v", err)
		}
		p.pos = end + 1
		return s, nil
	case c == '#':
		if strings.HasPrefix(p.src[p.pos:], "#t") {
			p.pos += 2
			return true, nil
		}
		if strings.HasPrefix(p.src[p.pos:], "#f") {
			p.pos += 2
			return false, nil
		}
		return nil, p.errf("bad boolean")
	default:
		start := p.pos
		for p.pos < len(p.src) && !strings.ContainsRune(" \t\n\r()", rune(p.src[p.pos])) {
			p.pos++
		}
		word := p.src[start:p.pos]
		if i, err := strconv.ParseInt(word, 10, 64); err == nil {
			return i, nil
		}
		if f, err := strconv.ParseFloat(word, 64); err == nil {
			return f, nil
		}
		return nil, p.errf("bad literal %q", word)
	}
}

// EncodeDOT renders the tree as a Graphviz digraph. Nodes display their
// tag, URI, and literals; edges are labeled with their links. Passing a
// non-nil highlight set draws those URIs with a double border — handy for
// visualizing the nodes an edit script touches.
func EncodeDOT(n *Node, sch *sig.Schema, highlight map[uri.URI]bool) string {
	var b strings.Builder
	b.WriteString("digraph tree {\n  node [shape=box, fontname=\"monospace\"];\n")
	var walk func(x *Node)
	walk = func(x *Node) {
		label := string(x.Tag) + "\\n" + x.URI.String()
		for i, l := range x.Lits {
			if i == 0 {
				label += "\\n"
			} else {
				label += " "
			}
			label += strings.ReplaceAll(fmt.Sprintf("%v", l), `"`, `\"`)
		}
		attrs := fmt.Sprintf("label=\"%s\"", label)
		if highlight[x.URI] {
			attrs += ", peripheries=2, color=red"
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", uint64(x.URI), attrs)
		g := sch.Lookup(x.Tag)
		for i, k := range x.Kids {
			link := ""
			if g != nil && i < len(g.Kids) {
				link = string(g.Kids[i].Link)
			}
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"%s\"];\n", uint64(x.URI), uint64(k.URI), link)
			walk(k)
		}
	}
	walk(n)
	b.WriteString("}\n")
	return b.String()
}
