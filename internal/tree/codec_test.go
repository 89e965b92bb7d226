package tree

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/derrors"
	"repro/internal/sig"
	"repro/internal/uri"
)

func boolSchema() *sig.Schema {
	s := testSchema()
	s.MustDeclare(sig.Sig{Tag: "Flag", Lits: []sig.LitSpec{{Link: "b", Type: sig.BoolLit}}, Result: "Exp"})
	s.MustDeclare(sig.Sig{Tag: "F", Lits: []sig.LitSpec{{Link: "v", Type: sig.FloatLit}}, Result: "Exp"})
	return s
}

func TestSExprRoundTrip(t *testing.T) {
	sch := boolSchema()
	alloc := uri.NewAllocator()
	b := NewBuilder(sch, alloc)
	trees := []*Node{
		b.MustN("Num", 42),
		b.MustN("Var", "hello world"),
		b.MustN("Var", `quote " and \ backslash`),
		b.MustN("Flag", true),
		b.MustN("Flag", false),
		b.MustN("F", 2.5),
		b.MustN("F", 100.0),
		b.MustN("Add",
			b.MustN("Sub", b.MustN("Var", "a"), b.MustN("Num", -7)),
			b.MustN("Add", b.MustN("Num", 0), b.MustN("Var", "b"))),
	}
	for _, orig := range trees {
		enc := EncodeSExpr(orig)
		back, err := DecodeSExpr(enc, sch, alloc)
		if err != nil {
			t.Fatalf("decode %q: %v", enc, err)
		}
		if !Equal(orig, back) {
			t.Fatalf("round trip changed tree: %q\norig %s\nback %s", enc, orig, back)
		}
	}
}

// Special float values must survive the text format: NaN and ±Inf format
// as words (no ".0" marker, which would make them unparseable) and -0
// must keep its sign. Equality here is LitEqual-based, so a NaN that came
// back as a different value would fail.
func TestSExprRoundTripSpecialFloats(t *testing.T) {
	sch := boolSchema()
	alloc := uri.NewAllocator()
	b := NewBuilder(sch, alloc)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		orig := b.MustN("F", v)
		enc := EncodeSExpr(orig)
		back, err := DecodeSExpr(enc, sch, alloc)
		if err != nil {
			t.Fatalf("decode %q: %v", enc, err)
		}
		if !Equal(orig, back) {
			t.Fatalf("round trip changed value: %q decoded to %#v", enc, back.Lits[0])
		}
	}
}

func TestSExprFormat(t *testing.T) {
	sch := testSchema()
	alloc := uri.NewAllocator()
	b := NewBuilder(sch, alloc)
	tr := b.MustN("Add", b.MustN("Var", "a"), b.MustN("Num", 1))
	if got := EncodeSExpr(tr); got != `(Add (Var "a") (Num 1))` {
		t.Errorf("sexpr = %q", got)
	}
}

func TestSExprDecodeWhitespace(t *testing.T) {
	sch := testSchema()
	alloc := uri.NewAllocator()
	n, err := DecodeSExpr("\n  ( Add\t(Var \"x\")\n (Num 3) )  \n", sch, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if n.Tag != "Add" || n.Kids[1].Lits[0] != int64(3) {
		t.Errorf("decoded %s", n)
	}
}

func TestSExprDecodeErrors(t *testing.T) {
	sch := testSchema()
	alloc := uri.NewAllocator()
	bad := []string{
		"",
		"Add",
		"(",
		"()",
		"(Add (Var \"a\"))",        // arity error from schema
		"(Nope)",                   // undeclared tag
		"(Num 1) trailing",         // trailing input
		"(Var \"unterminated)",     // unterminated string
		"(Num zzz)",                // bad literal
		"(Flag #x)",                // bad boolean (undeclared tag too)
		"(Add (Var \"a\") (Num 1)", // unterminated tree
	}
	for _, src := range bad {
		if _, err := DecodeSExpr(src, sch, alloc); err == nil {
			t.Errorf("decode %q should fail", src)
		}
	}
}

// chainSExpr is a chain of depth nodes: depth-1 nested Calls around a Num.
func chainSExpr(depth int) string {
	return strings.Repeat(`(Call "f" `, depth-1) + "(Num 1)" + strings.Repeat(")", depth-1)
}

// The decoder's depth cap: a chain exactly MaxSExprDepth deep decodes, one
// level more is rejected with ErrTreeTooDeep, and so is a chain as deep as
// the 2M-node one that once overflowed the stack in the differ — without
// the decoder itself recursing that deep.
func TestSExprDepthCap(t *testing.T) {
	sch := testSchema()
	sch.MustDeclare(sig.Sig{Tag: "Call", Kids: []sig.KidSpec{{Link: "a", Sort: "Exp"}},
		Lits: []sig.LitSpec{{Link: "f", Type: sig.StringLit}}, Result: "Exp"})
	alloc := uri.NewAllocator()

	n, err := DecodeSExpr(chainSExpr(MaxSExprDepth), sch, alloc)
	if err != nil {
		t.Fatalf("chain at the cap: %v", err)
	}
	if n.Height() != MaxSExprDepth-1 {
		t.Errorf("chain at the cap: height %d, want %d", n.Height(), MaxSExprDepth-1)
	}
	for _, depth := range []int{MaxSExprDepth + 1, 2 << 20} {
		if _, err := DecodeSExpr(chainSExpr(depth), sch, alloc); !errors.Is(err, derrors.ErrTreeTooDeep) {
			t.Errorf("chain of depth %d: err = %v, want ErrTreeTooDeep", depth, err)
		}
	}
}

func TestEncodeDOT(t *testing.T) {
	sch := testSchema()
	alloc := uri.NewAllocator()
	b := NewBuilder(sch, alloc)
	tr := b.MustN("Add", b.MustN("Var", "a"), b.MustN("Num", 1))
	dot := EncodeDOT(tr, sch, map[uri.URI]bool{tr.Kids[0].URI: true})
	for _, want := range []string{"digraph tree", "Add", "label=\"e1\"", "label=\"e2\"", "peripheries=2"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot lacks %q:\n%s", want, dot)
		}
	}
	if strings.Count(dot, "->") != 2 {
		t.Errorf("edges = %d, want 2", strings.Count(dot, "->"))
	}
}
