package truechange

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/sig"
	"repro/internal/uri"
)

func TestInvertEditDuals(t *testing.T) {
	d := Detach{Node: nref("Sub", 2), Link: "e1", Parent: nref("Add", 1)}
	a, ok := InvertEdit(d).(Attach)
	if !ok || a.Node != d.Node || a.Link != d.Link || a.Parent != d.Parent {
		t.Errorf("invert detach = %v", InvertEdit(d))
	}
	if _, ok := InvertEdit(a).(Detach); !ok {
		t.Error("invert attach should be detach")
	}
	l := Load{Node: nref("Num", 4), Lits: []LitArg{{Link: "n", Value: int64(7)}}}
	u, ok := InvertEdit(l).(Unload)
	if !ok || u.Node != l.Node || len(u.Lits) != 1 {
		t.Errorf("invert load = %v", InvertEdit(l))
	}
	up := Update{Node: nref("Var", 9),
		Old: []LitArg{{Link: "name", Value: "a"}},
		New: []LitArg{{Link: "name", Value: "b"}}}
	inv, ok := InvertEdit(up).(Update)
	if !ok || inv.Old[0].Value != "b" || inv.New[0].Value != "a" {
		t.Errorf("invert update = %v", InvertEdit(up))
	}
}

// TestInvertSpecialFloatLiterals pins the special-float bug class at the
// Invert level: the dual of an edit carrying NaN, ±Inf, or -0 must carry
// the exact same bit pattern, so that the inverse patch restores the
// literal bit-identically (Go == on NaN would call the values unequal, and
// -0 == +0 would let the sign bit drift — tree.LitEqual semantics apply).
func TestInvertSpecialFloatLiterals(t *testing.T) {
	bits := func(v any) uint64 { return math.Float64bits(v.(float64)) }
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		up := Update{Node: nref("Num", 1),
			Old: []LitArg{{Link: "n", Value: v}},
			New: []LitArg{{Link: "n", Value: 1.0}}}
		inv := InvertEdit(up).(Update)
		if bits(inv.New[0].Value) != math.Float64bits(v) {
			t.Errorf("inverted update lost the bit pattern of %v: %x vs %x",
				v, bits(inv.New[0].Value), math.Float64bits(v))
		}
		if bits(inv.Old[0].Value) != math.Float64bits(1.0) {
			t.Errorf("inverted update corrupted the new value: %v", inv.Old[0].Value)
		}
		ul := Unload{Node: nref("Num", 2), Lits: []LitArg{{Link: "n", Value: v}}}
		ld := InvertEdit(ul).(Load)
		if bits(ld.Lits[0].Value) != math.Float64bits(v) {
			t.Errorf("inverted unload lost the bit pattern of %v", v)
		}
		// Double inversion is exact, bit for bit.
		back := InvertEdit(InvertEdit(up)).(Update)
		if bits(back.Old[0].Value) != math.Float64bits(v) {
			t.Errorf("double inversion drifted on %v", v)
		}
	}
}

func TestInvertScriptIsWellTyped(t *testing.T) {
	sch := expSchema()
	// Replace a subtree: detach+unload+load+attach.
	s := &Script{Edits: []Edit{
		Detach{Node: nref("Var", 2), Link: "e1", Parent: nref("Add", 1)},
		Unload{Node: nref("Var", 2), Lits: []LitArg{{Link: "name", Value: "a"}}},
		Load{Node: nref("Num", 4), Lits: []LitArg{{Link: "n", Value: int64(7)}}},
		Attach{Node: nref("Num", 4), Link: "e1", Parent: nref("Add", 1)},
	}}
	if err := WellTyped(sch, s); err != nil {
		t.Fatal(err)
	}
	inv := Invert(s)
	if err := WellTyped(sch, inv); err != nil {
		t.Fatalf("inverse is ill-typed: %v\n%s", err, inv)
	}
	// Round trip: invert twice restores the original script.
	if Invert(inv).String() != s.String() {
		t.Error("double inversion should restore the script")
	}
}

func TestInvertPreservesLength(t *testing.T) {
	s := &Script{Edits: []Edit{
		Update{Node: nref("Var", 1), Old: []LitArg{{Link: "name", Value: "x"}}, New: []LitArg{{Link: "name", Value: "y"}}},
		Detach{Node: nref("Sub", 2), Link: "e1", Parent: nref("Add", 1)},
		Attach{Node: nref("Sub", 2), Link: "e2", Parent: nref("Mul", 5)},
	}}
	inv := Invert(s)
	if inv.Len() != s.Len() {
		t.Errorf("length changed: %d vs %d", inv.Len(), s.Len())
	}
	// Order is reversed.
	if _, ok := inv.Edits[0].(Detach); !ok {
		t.Errorf("first inverse edit = %v, want detach (dual of last attach)", inv.Edits[0])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := &Script{Edits: []Edit{
		Detach{Node: nref("Sub", 2), Link: "e1", Parent: nref("Add", 1)},
		Unload{Node: nref("Sub", 2), Kids: []KidArg{{Link: "e1", URI: 3}, {Link: "e2", URI: 4}}},
		Load{Node: nref("Num", 9), Lits: []LitArg{{Link: "n", Value: int64(7)}}},
		Load{Node: nref("F", 10), Lits: []LitArg{{Link: "v", Value: 2.5}}},
		Load{Node: nref("B", 11), Lits: []LitArg{{Link: "v", Value: true}}},
		Load{Node: nref("S", 12), Lits: []LitArg{{Link: "v", Value: "hi"}}},
		Attach{Node: nref("Num", 9), Link: "e1", Parent: nref("Add", 1)},
		Update{Node: nref("Var", 5),
			Old: []LitArg{{Link: "name", Value: "a"}},
			New: []LitArg{{Link: "name", Value: "b"}}},
	}}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Script
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != s.String() {
		t.Fatalf("round trip changed the script:\n%s\nvs\n%s", back.String(), s.String())
	}
	// Literal types must be preserved exactly.
	if back.Edits[2].(Load).Lits[0].Value != int64(7) {
		t.Errorf("int literal type lost: %T", back.Edits[2].(Load).Lits[0].Value)
	}
	if back.Edits[3].(Load).Lits[0].Value != 2.5 {
		t.Errorf("float literal lost")
	}
	if back.Edits[4].(Load).Lits[0].Value != true {
		t.Errorf("bool literal lost")
	}
}

// TestJSONRoundTripFloatSpecials: NaN, ±Inf and -0 — literals JSON numbers
// cannot carry — survive the round trip bit for bit.
func TestJSONRoundTripFloatSpecials(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, -1.5}
	s := &Script{}
	for i, f := range specials {
		s.Edits = append(s.Edits, Load{Node: nref("F", 1+uri.URI(i)), Lits: []LitArg{{Link: "v", Value: f}}})
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Script
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i, f := range specials {
		got, ok := back.Edits[i].(Load).Lits[0].Value.(float64)
		if !ok || math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("float %v came back as %v", f, back.Edits[i].(Load).Lits[0].Value)
		}
	}
	if err := json.Unmarshal([]byte(`[{"op":"load","lits":[{"link":"v","kind":"f","s":"nope"}]}]`), &back); err == nil {
		t.Error("malformed float text should fail")
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	var s Script
	if err := json.Unmarshal([]byte(`[{"op":"explode"}]`), &s); err == nil {
		t.Error("unknown op should fail")
	}
	if err := json.Unmarshal([]byte(`{"not":"an array"}`), &s); err == nil {
		t.Error("non-array should fail")
	}
	if err := json.Unmarshal([]byte(`[{"op":"load","lits":[{"link":"n","kind":"zzz"}]}]`), &s); err == nil {
		t.Error("unknown literal kind should fail")
	}
}

func TestMarshalRejectsBadLiteral(t *testing.T) {
	s := &Script{Edits: []Edit{
		Load{Node: nref("X", 1), Lits: []LitArg{{Link: "v", Value: []int{1}}}},
	}}
	if _, err := json.Marshal(s); err == nil {
		t.Error("unsupported literal type should fail to serialize")
	}
	_ = sig.Link("")
}
