package tree_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jsonlang"
	"repro/internal/tree"
	"repro/internal/uri"
)

// FuzzDecodeSExpr fuzzes the decoder the diff service feeds request bodies
// to, over the JSON schema. Any input may be rejected, but the decoder
// must never panic; a tree it accepts must respect the depth cap, and must
// re-encode to text that decodes to an Equal tree. The seeds are the
// S-expressions of the property-test regression corpus. Chains around the
// cap are TestSExprDepthCap's job: seeds that large stall the fuzzer.
//
//	go test -run '^$' -fuzz FuzzDecodeSExpr -fuzztime 10s ./internal/tree/
func FuzzDecodeSExpr(f *testing.F) {
	for _, s := range regressSExprs(f) {
		f.Add(s)
	}
	f.Add(`(Object (MemberCons (Member "kéy" (Bool #t)) (MemberNil)))`)

	sch := jsonlang.Schema()
	f.Fuzz(func(t *testing.T, src string) {
		alloc := uri.NewAllocator()
		n, err := tree.DecodeSExpr(src, sch, alloc)
		if err != nil {
			return
		}
		if n.Height() >= tree.MaxSExprDepth {
			t.Fatalf("decoded a tree of height %d past the depth cap %d", n.Height(), tree.MaxSExprDepth)
		}
		enc := tree.EncodeSExpr(n)
		back, err := tree.DecodeSExpr(enc, sch, alloc)
		if err != nil {
			t.Fatalf("re-encoded tree does not decode: %v\nsource %q\nencoded %q", err, src, enc)
		}
		if !tree.Equal(n, back) {
			t.Fatalf("round trip changed the tree\nsource  %q\nencoded %q", src, enc)
		}
	})
}

// regressSExprs returns every S-expression stored in the property-test
// regression corpus: the string fields of its JSON records that start
// with '('.
func regressSExprs(f *testing.F) []string {
	f.Helper()
	var files []string
	for _, pat := range []string{"*.json", "*/*.json"} {
		m, err := filepath.Glob(filepath.Join("..", "proptest", "testdata", "regress", pat))
		if err != nil {
			f.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		f.Fatal("no regression corpus found")
	}
	var out []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		var rec map[string]any
		if err := json.Unmarshal(data, &rec); err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		for _, v := range rec {
			if s, ok := v.(string); ok && strings.HasPrefix(s, "(") {
				out = append(out, s)
			}
		}
	}
	return out
}
