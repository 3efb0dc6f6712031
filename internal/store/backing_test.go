package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/hcache"
	"repro/internal/token"
)

// stringCodec is a trivial PayloadCodec over string payloads, standing in for
// the preprocessor's segment-forest codec.
type stringCodec struct{ failEncode bool }

func (c stringCodec) EncodePayload(v any) ([]byte, error) {
	if c.failEncode {
		return nil, errors.New("encode disabled")
	}
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("not a string: %T", v)
	}
	return []byte(s), nil
}

func (c stringCodec) DecodePayload(data []byte) (any, error) {
	if bytes.HasPrefix(data, []byte("BAD")) {
		return nil, errors.New("poisoned payload")
	}
	return string(data), nil
}

func TestBackingLexRoundTrip(t *testing.T) {
	b := NewHeaderBacking(open(t, t.TempDir(), Options{}), stringCodec{})
	if _, ok := b.LoadLex("absent"); ok {
		t.Fatal("LoadLex(absent) hit")
	}
	e := &hcache.LexEntry{
		Lines: [][]token.Token{{{Text: "int"}, {Text: "x"}}, nil, {{Text: ";"}}},
		Guard: "FOO_H",
		Bytes: 42,
	}
	b.SaveLex("k", e)
	got, ok := b.LoadLex("k")
	if !ok {
		t.Fatal("LoadLex missed after SaveLex")
	}
	if got.Guard != "FOO_H" || got.Bytes != 42 || len(got.Lines) != 3 || len(got.Lines[0]) != 2 ||
		got.Lines[0][1].Text != "x" || len(got.Lines[1]) != 0 || got.Lines[2][0].Text != ";" {
		t.Fatalf("LoadLex = %+v", got)
	}
}

// TestBackingLexOldShape pins lex-cache compatibility across the drop of
// LexEntry's token copy: an artifact written in the old {Toks, Lines,
// Guard, Bytes} shape still loads, with the same lines, guard and size.
// Gob skips the field the new type lacks, so existing stores keep hitting.
func TestBackingLexOldShape(t *testing.T) {
	type oldLexEntry struct {
		Toks  []token.Token
		Lines [][]token.Token
		Guard string
		Bytes int
	}
	toks := []token.Token{
		{Kind: token.Punct, Text: "#", File: "foo.h", Line: 1, Col: 1},
		{Kind: token.Identifier, Text: "define", File: "foo.h", Line: 1, Col: 2},
		{Kind: token.Identifier, Text: "FOO_H", File: "foo.h", Line: 1, Col: 9, HasSpace: true},
		{Kind: token.Identifier, Text: "int", File: "foo.h", Line: 3, Col: 1},
	}
	old := oldLexEntry{Toks: toks, Lines: [][]token.Token{toks[:3], nil, toks[3:]}, Guard: "FOO_H", Bytes: 27}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	s := open(t, t.TempDir(), Options{})
	s.Put(NSLex, "k", buf.Bytes())
	got, ok := NewHeaderBacking(s, stringCodec{}).LoadLex("k")
	if !ok {
		t.Fatal("old-shape lex artifact did not load")
	}
	if got.Guard != old.Guard || got.Bytes != old.Bytes || len(got.Lines) != len(old.Lines) {
		t.Fatalf("LoadLex = %+v", got)
	}
	for i, line := range old.Lines {
		if !slices.Equal(got.Lines[i], line) {
			t.Fatalf("line %d = %+v, want %+v", i, got.Lines[i], line)
		}
	}
}

func TestBackingLexUndecodable(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	b := NewHeaderBacking(s, stringCodec{})
	s.Put(NSLex, "k", []byte("not gob at all"))
	if _, ok := b.LoadLex("k"); ok {
		t.Fatal("LoadLex decoded garbage")
	}
	// The bad artifact is dropped so it is not re-read every miss.
	if _, ok := s.Get(NSLex, "k"); ok {
		t.Fatal("undecodable lex artifact not deleted")
	}
}

func entryWithFP(sig, payload string) *hcache.Entry {
	return &hcache.Entry{
		Fingerprint:     []hcache.KV{{Key: "CONFIG_A", Sig: sig}},
		Deps:            []hcache.Dep{{Path: "a.h", Hash: "abc"}},
		Probes:          []hcache.Probe{{Path: "b.h", Exists: false}},
		RelIncludeDepth: 3,
		Bytes:           100,
		Payload:         payload,
		Portable:        true,
	}
}

func TestBackingEntryRoundTrip(t *testing.T) {
	b := NewHeaderBacking(open(t, t.TempDir(), Options{}), stringCodec{})
	if got := b.LoadEntries("absent"); got != nil {
		t.Fatalf("LoadEntries(absent) = %v", got)
	}
	b.SaveEntry("k", entryWithFP("sig1", "payload-one"))
	b.SaveEntry("k", entryWithFP("sig2", "payload-two"))
	got := b.LoadEntries("k")
	if len(got) != 2 {
		t.Fatalf("LoadEntries returned %d entries; want 2", len(got))
	}
	// Newest first; every decoded entry is portable by construction.
	if got[0].Payload != "payload-two" || got[1].Payload != "payload-one" {
		t.Fatalf("order/payloads wrong: %v, %v", got[0].Payload, got[1].Payload)
	}
	for _, e := range got {
		if !e.Portable {
			t.Fatal("decoded entry not marked portable")
		}
		if e.RelIncludeDepth != 3 || e.Bytes != 100 || len(e.Deps) != 1 || len(e.Probes) != 1 {
			t.Fatalf("entry fields lost: %+v", e)
		}
	}
}

func TestBackingEntryDedupAndCap(t *testing.T) {
	b := NewHeaderBacking(open(t, t.TempDir(), Options{}), stringCodec{})
	// Same fingerprint twice: second save is a no-op.
	b.SaveEntry("k", entryWithFP("same", "first"))
	b.SaveEntry("k", entryWithFP("same", "second"))
	if got := b.LoadEntries("k"); len(got) != 1 || got[0].Payload != "first" {
		t.Fatalf("dedup failed: %d entries", len(got))
	}
	// Distinct fingerprints accumulate, capped at maxEntriesPerKey.
	for i := 0; i < maxEntriesPerKey+4; i++ {
		b.SaveEntry("cap", entryWithFP(fmt.Sprintf("sig%d", i), fmt.Sprintf("p%d", i)))
	}
	if got := b.LoadEntries("cap"); len(got) != maxEntriesPerKey {
		t.Fatalf("cap failed: %d entries; want %d", len(got), maxEntriesPerKey)
	}
}

func TestBackingEntryCodecFailures(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	b := NewHeaderBacking(s, stringCodec{})
	// Encode failure: nothing persisted, no panic.
	bad := NewHeaderBacking(s, stringCodec{failEncode: true})
	bad.SaveEntry("k", entryWithFP("sig", "payload"))
	if got := b.LoadEntries("k"); got != nil {
		t.Fatalf("encode-failed entry persisted: %v", got)
	}
	// Decode failure on one entry keeps the rest.
	b.SaveEntry("k", entryWithFP("good", "fine"))
	b.SaveEntry("k", entryWithFP("poison", "BAD payload"))
	got := b.LoadEntries("k")
	if len(got) != 1 || got[0].Payload != "fine" {
		t.Fatalf("decode failure not isolated: %d entries", len(got))
	}
}

func TestGobHelpers(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	type fact struct {
		Name  string
		Count int
	}
	PutGob(s, NSFacts, "k", fact{Name: "diag", Count: 7})
	var got fact
	if !GetGob(s, NSFacts, "k", &got) || got.Name != "diag" || got.Count != 7 {
		t.Fatalf("GetGob = %+v", got)
	}
	// Format drift: the stored gob no longer decodes into the caller's type.
	var buf bytes.Buffer
	gob.NewEncoder(&buf).Encode("just a string")
	s.Put(NSFacts, "drift", buf.Bytes())
	var out fact
	if GetGob(s, NSFacts, "drift", &out) {
		t.Fatal("GetGob decoded mismatched type")
	}
	if _, ok := s.Get(NSFacts, "drift"); ok {
		t.Fatal("undecodable facts artifact not deleted")
	}
}
