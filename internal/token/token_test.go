package token

import (
	"testing"
	"unsafe"
)

func TestHideSet(t *testing.T) {
	var h *HideSet
	if h.Contains("A") {
		t.Error("empty set contains A")
	}
	h1 := h.With("A")
	if !h1.Contains("A") || h1.Contains("B") {
		t.Error("With(A) wrong")
	}
	h2 := h1.With("B")
	if !h2.Contains("A") || !h2.Contains("B") {
		t.Error("chained With wrong")
	}
	// The original is unchanged (persistence).
	if h1.Contains("B") {
		t.Error("With mutated the receiver")
	}
}

func TestHideSetUnion(t *testing.T) {
	a := (*HideSet)(nil).With("A").With("B")
	b := (*HideSet)(nil).With("B").With("C")
	u := a.Union(b)
	for _, name := range []string{"A", "B", "C"} {
		if !u.Contains(name) {
			t.Errorf("union missing %s", name)
		}
	}
	if u.Contains("D") {
		t.Error("union contains D")
	}
}

func TestTokenPredicates(t *testing.T) {
	p := Token{Kind: Punct, Text: "##"}
	if !p.Is("##") || p.Is("#") || p.IsIdent("##") {
		t.Error("Is/IsIdent on punct")
	}
	id := Token{Kind: Identifier, Text: "foo"}
	if !id.IsIdent("foo") || id.Is("foo") {
		t.Error("Is/IsIdent on identifier")
	}
}

func TestStringers(t *testing.T) {
	if EOF.String() != "EOF" || Newline.String() != "Newline" {
		t.Error("kind names")
	}
	if Kind(200).String() == "" {
		t.Error("out-of-range kind")
	}
	tok := Token{Kind: Identifier, Text: "x", File: "f.c", Line: 3, Col: 7}
	if tok.Pos() != "f.c:3:7" {
		t.Errorf("Pos = %q", tok.Pos())
	}
	if (Token{Kind: EOF}).String() != "<eof>" {
		t.Error("EOF string")
	}
	if (Token{Kind: Newline}).String() != "<nl>" {
		t.Error("newline string")
	}
}

// TestTokenSize pins the Token layout at 64 bytes; a field added, or moved
// out of the trailing one-byte group, grows every token array in the
// pipeline.
func TestTokenSize(t *testing.T) {
	if got := unsafe.Sizeof(Token{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Token{}) = %d, want 64", got)
	}
}
