package tree

import (
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sig"
	"repro/internal/uri"
)

// goldenWidth is the kid count of the golden tree's Wide node. Its
// structure pre-image (40 length-prefixed kid digests) is far larger than
// the stack buffer hashing starts in, under both hash kinds.
const goldenWidth = 40

// goldenTree builds a fixed tree that exercises every literal kind —
// strings (empty, multibyte, and one longer than the stack pre-image
// buffer), int64 extremes, both bools, and the float specials NaN, ±Inf
// and -0 — below a node wide enough to spill the buffer.
func goldenTree(t *testing.T, kind HashKind) *Node {
	t.Helper()
	sch := sig.NewSchema("golden")
	sch.MustDeclare(sig.Sig{Tag: "Mix", Lits: []sig.LitSpec{
		{Link: "empty", Type: sig.StringLit},
		{Link: "long", Type: sig.StringLit},
		{Link: "min", Type: sig.IntLit},
		{Link: "max", Type: sig.IntLit},
		{Link: "yes", Type: sig.BoolLit},
		{Link: "no", Type: sig.BoolLit},
		{Link: "nan", Type: sig.FloatLit},
		{Link: "inf", Type: sig.FloatLit},
		{Link: "ninf", Type: sig.FloatLit},
		{Link: "nzero", Type: sig.FloatLit},
	}, Result: "Exp"})
	sch.MustDeclare(sig.Sig{Tag: "S", Lits: []sig.LitSpec{{Link: "s", Type: sig.StringLit}}, Result: "Exp"})
	sch.MustDeclare(sig.Sig{Tag: "F", Lits: []sig.LitSpec{{Link: "f", Type: sig.FloatLit}}, Result: "Exp"})
	kids := make([]sig.KidSpec, goldenWidth)
	for i := range kids {
		kids[i] = sig.KidSpec{Link: sig.Link(fmt.Sprintf("k%d", i)), Sort: "Exp"}
	}
	sch.MustDeclare(sig.Sig{Tag: "Wide", Kids: kids, Lits: []sig.LitSpec{{Link: "label", Type: sig.StringLit}}, Result: "Exp"})

	b := NewBuilderHashed(sch, uri.NewAllocator(), kind)
	args := []any{strings.Repeat("0123456789abcdef", 100)}
	args = append(args, b.MustN("Mix", "", strings.Repeat("λx.", 700),
		int64(math.MinInt64), int64(math.MaxInt64), true, false,
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)))
	for i := 1; i < goldenWidth; i++ {
		if i%2 == 0 {
			args = append(args, b.MustN("F", float64(i)/4))
		} else {
			args = append(args, b.MustN("S", fmt.Sprintf("kid-%d", i)))
		}
	}
	return b.MustN("Wide", args...)
}

// TestDigestGolden pins the digests of goldenTree under both hash kinds.
// The values were recorded from the streaming hasher that preceded the
// shared pre-image encoder, so any drift in the pre-image byte format — a
// changed length prefix, type discriminator, field order, or digest layout
// — fails here. Wire refs, benchmark fingerprints and stored corpora all
// depend on these bytes staying fixed.
func TestDigestGolden(t *testing.T) {
	cases := []struct {
		kind              HashKind
		name              string
		structHex, litHex string
	}{
		{SHA256, "sha256",
			"85889be16444bcbe5bec0d4a3c1bec695279d6808dcf803f59d03ab6085428f8",
			"e04a39bb0c5ffb2ff8e843675701b0a0f535f3176e6f31de696f309b659c46f7"},
		{FNV64, "fnv64", "c444a1aa386b8c94", "0e030e7143c405c1"},
	}
	for _, c := range cases {
		n := goldenTree(t, c.kind)
		if got := hex.EncodeToString([]byte(n.StructHash())); got != c.structHex {
			t.Errorf("%s: StructHash = %s, want %s", c.name, got, c.structHex)
		}
		if got := hex.EncodeToString([]byte(n.LitHash())); got != c.litHex {
			t.Errorf("%s: LitHash = %s, want %s", c.name, got, c.litHex)
		}
		if got := hex.EncodeToString([]byte(n.ExactHash())); got != c.structHex+c.litHex {
			t.Errorf("%s: ExactHash = %s, want %s", c.name, got, c.structHex+c.litHex)
		}
	}
}
