package sig

import (
	"strings"
	"sync"
	"testing"
)

func TestBaseTypeAdmits(t *testing.T) {
	cases := []struct {
		bt   BaseType
		v    any
		want bool
	}{
		{StringLit, "x", true},
		{StringLit, int64(1), false},
		{IntLit, int64(1), true},
		{IntLit, 1, false}, // plain int is not a literal type
		{IntLit, "1", false},
		{FloatLit, 1.5, true},
		{FloatLit, int64(1), false},
		{BoolLit, true, true},
		{BoolLit, "true", false},
		{AnyLit, "x", true},
		{AnyLit, int64(1), true},
		{AnyLit, 1.5, true},
		{AnyLit, false, true},
		{AnyLit, []int{1}, false}, // not a literal type at all
	}
	for _, c := range cases {
		if got := c.bt.Admits(c.v); got != c.want {
			t.Errorf("%s.Admits(%#v) = %v, want %v", c.bt, c.v, got, c.want)
		}
	}
}

func TestBaseTypeString(t *testing.T) {
	names := map[BaseType]string{
		AnyLit: "any", StringLit: "string", IntLit: "int", FloatLit: "float", BoolLit: "bool",
	}
	for bt, want := range names {
		if bt.String() != want {
			t.Errorf("BaseType(%d).String() = %q, want %q", bt, bt.String(), want)
		}
	}
	if !strings.Contains(BaseType(99).String(), "99") {
		t.Errorf("unknown base type should render its number")
	}
}

func TestSchemaHasRootSignature(t *testing.T) {
	s := NewSchema("test")
	g := s.Lookup(RootTag)
	if g == nil {
		t.Fatal("root tag not declared")
	}
	if len(g.Kids) != 1 || g.Kids[0].Link != RootLink || g.Kids[0].Sort != Any {
		t.Errorf("root signature kids = %v, want single RootLink:Any", g.Kids)
	}
	if g.Result != RootSort {
		t.Errorf("root result = %s, want %s", g.Result, RootSort)
	}
}

func TestDeclareRejectsDuplicatesAndBadSigs(t *testing.T) {
	s := NewSchema("test")
	ok := Sig{Tag: "A", Result: "Exp"}
	if err := s.Declare(ok); err != nil {
		t.Fatalf("Declare(A): %v", err)
	}
	if err := s.Declare(ok); err == nil {
		t.Error("redeclaring tag A should fail")
	}
	bad := []Sig{
		{Tag: "", Result: "Exp"},
		{Tag: "B", Result: ""},
		{Tag: "C", Result: "Exp", Kids: []KidSpec{{Link: "", Sort: "Exp"}}},
		{Tag: "D", Result: "Exp", Kids: []KidSpec{{Link: "x", Sort: "Exp"}, {Link: "x", Sort: "Exp"}}},
		{Tag: "E", Result: "Exp", Lits: []LitSpec{{Link: "", Type: IntLit}}},
		{Tag: "F", Result: "Exp",
			Kids: []KidSpec{{Link: "x", Sort: "Exp"}},
			Lits: []LitSpec{{Link: "x", Type: IntLit}}}, // kid/lit link clash
	}
	for _, g := range bad {
		if err := s.Declare(g); err == nil {
			t.Errorf("Declare(%v) should fail", g)
		}
	}
}

func TestDeclareCopiesSlices(t *testing.T) {
	s := NewSchema("test")
	kids := []KidSpec{{Link: "x", Sort: "Exp"}}
	if err := s.Declare(Sig{Tag: "A", Kids: kids, Result: "Exp"}); err != nil {
		t.Fatal(err)
	}
	kids[0].Link = "mutated"
	if got := s.Lookup("A").Kids[0].Link; got != "x" {
		t.Errorf("schema shared caller's slice: link = %q", got)
	}
}

func TestSubtyping(t *testing.T) {
	s := NewSchema("test")
	s.MustDeclareSort("Stmt", Any)
	s.MustDeclareSort("Expr", Any)
	s.MustDeclareSort("Lit", "Expr")
	s.MustDeclareSort("NumLit", "Lit")

	cases := []struct {
		sub, super Sort
		want       bool
	}{
		{"NumLit", "NumLit", true},
		{"NumLit", "Lit", true},
		{"NumLit", "Expr", true},
		{"NumLit", Any, true},
		{"Lit", "NumLit", false},
		{"Stmt", "Expr", false},
		{"Expr", "Stmt", false},
		{"Unknown", Any, true},
		{"Unknown", "Expr", false},
		{Any, "Expr", false},
	}
	for _, c := range cases {
		if got := s.IsSubsort(c.sub, c.super); got != c.want {
			t.Errorf("IsSubsort(%s, %s) = %v, want %v", c.sub, c.super, got, c.want)
		}
	}
}

func TestDeclareSortRejectsCyclesAndRedeclaration(t *testing.T) {
	s := NewSchema("test")
	s.MustDeclareSort("B", "A")
	s.MustDeclareSort("C", "B")
	if err := s.DeclareSort("A", "C"); err == nil {
		t.Error("cycle A ≤ C ≤ B ≤ A should be rejected")
	}
	if err := s.DeclareSort("B", "C"); err == nil {
		t.Error("redeclaring B under a different parent should fail")
	}
	if err := s.DeclareSort("B", "A"); err != nil {
		t.Errorf("identical redeclaration should be a no-op, got %v", err)
	}
	if err := s.DeclareSort(Any, "A"); err == nil {
		t.Error("declaring a supersort of Any should fail")
	}
}

func TestTagQueries(t *testing.T) {
	s := NewSchema("test")
	s.MustDeclareSort("Lit", "Expr")
	s.MustDeclare(Sig{Tag: "Num", Result: "Lit"})
	s.MustDeclare(Sig{Tag: "Add", Result: "Expr"})
	s.MustDeclare(Sig{Tag: "If", Result: "Stmt"})

	if got, ok := s.ResultSort("Num"); !ok || got != "Lit" {
		t.Errorf("ResultSort(Num) = %s,%v", got, ok)
	}
	if _, ok := s.ResultSort("Nope"); ok {
		t.Error("ResultSort of undeclared tag should report false")
	}
	exprTags := s.TagsOfSort("Expr")
	if len(exprTags) != 2 || exprTags[0] != "Add" || exprTags[1] != "Num" {
		t.Errorf("TagsOfSort(Expr) = %v", exprTags)
	}
	anyTags := s.TagsOfSort(Any)
	if len(anyTags) != 3 {
		t.Errorf("TagsOfSort(Any) = %v, want all 3 user tags", anyTags)
	}
	all := s.Tags()
	if len(all) != 4 { // 3 user tags + RootTag
		t.Errorf("Tags() = %v", all)
	}
}

func TestSigIndexesAndString(t *testing.T) {
	g := Sig{
		Tag:    "Call",
		Kids:   []KidSpec{{Link: "a", Sort: "Exp"}},
		Lits:   []LitSpec{{Link: "f", Type: StringLit}},
		Result: "Exp",
	}
	if g.KidIndex("a") != 0 || g.KidIndex("f") != -1 {
		t.Error("KidIndex wrong")
	}
	if g.LitIndex("f") != 0 || g.LitIndex("a") != -1 {
		t.Error("LitIndex wrong")
	}
	str := g.String()
	for _, part := range []string{"Call", "a:Exp", "f:string", "→ Exp"} {
		if !strings.Contains(str, part) {
			t.Errorf("Sig.String() = %q lacks %q", str, part)
		}
	}
}

// TestFingerprintConcurrent: parallel first callers of Fingerprint (an
// engine per goroutine over one schema) all get the digest a serial
// caller computes. Run under -race it also guards the lazy cache.
func TestFingerprintConcurrent(t *testing.T) {
	build := func() *Schema {
		s := NewSchema("fp")
		s.MustDeclareSort("Num", "Exp")
		s.MustDeclare(Sig{Tag: "Lit", Lits: []LitSpec{{Link: "v", Type: IntLit}}, Result: "Num"})
		s.MustDeclare(Sig{Tag: "Add", Kids: []KidSpec{{Link: "l", Sort: "Exp"}, {Link: "r", Sort: "Exp"}}, Result: "Exp"})
		return s
	}
	want := build().Fingerprint()
	s := build()
	const callers = 8
	got := make([]string, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = s.Fingerprint()
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("caller %d got fingerprint %x, want %x", i, fp, want)
		}
	}
}
