// Package token defines the lexical token representation shared by the
// lexer, the configuration-preserving preprocessor, and the FMLR parser.
//
// Per the paper (§5), the preprocessor accesses tokens through an interface
// that hides source-language details irrelevant to preprocessing; here that
// interface is a small struct with a coarse Kind. All identifier-shaped words
// lex as Identifier — C keywords are reclassified only at parse time, because
// the preprocessor must treat keywords as potential macro names.
package token

import "fmt"

// Kind classifies a token coarsely. The parser refines Identifier into
// keywords and typedef names via its context plugin.
type Kind uint8

// Token kinds.
const (
	EOF        Kind = iota // end of input
	Newline                // logical end of line (significant for directives)
	Identifier             // identifier or keyword
	Number                 // preprocessing number (integer or floating)
	Char                   // character constant, including L'x'
	String                 // string literal, including L"x"
	Punct                  // operator or punctuator, including # and ##
	Other                  // any other single character (e.g. stray backslash)
)

var kindNames = [...]string{
	EOF:        "EOF",
	Newline:    "Newline",
	Identifier: "Identifier",
	Number:     "Number",
	Char:       "Char",
	String:     "String",
	Punct:      "Punct",
	Other:      "Other",
}

// String returns the kind's name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", k)
}

// HideSet is a persistent (shared-tail) set of macro names that must not be
// re-expanded in a token, implementing the standard no-recursion rule of
// macro expansion ("blue paint").
type HideSet struct {
	name string
	rest *HideSet
}

// With returns a hide set extending h with name.
func (h *HideSet) With(name string) *HideSet {
	return &HideSet{name: name, rest: h}
}

// Contains reports whether name is hidden.
func (h *HideSet) Contains(name string) bool {
	for s := h; s != nil; s = s.rest {
		if s.name == name {
			return true
		}
	}
	return false
}

// Union returns a hide set containing the names of both sets. Used when
// token pasting merges tokens (the result hides what either operand hid).
func (h *HideSet) Union(o *HideSet) *HideSet {
	for s := o; s != nil; s = s.rest {
		if !h.Contains(s.name) {
			h = h.With(s.name)
		}
	}
	return h
}

// GobEncode flattens the hide set to its member names so tokens inside
// persisted artifacts (the on-disk header store) round-trip. Sets are tiny
// (macro nesting depth), so the flat representation costs nothing.
func (h *HideSet) GobEncode() ([]byte, error) {
	var b []byte
	for s := h; s != nil; s = s.rest {
		b = append(b, s.name...)
		b = append(b, 0)
	}
	return b, nil
}

// GobDecode rebuilds a hide set from its flattened names, preserving order.
func (h *HideSet) GobDecode(data []byte) error {
	var names []string
	for len(data) > 0 {
		i := 0
		for i < len(data) && data[i] != 0 {
			i++
		}
		names = append(names, string(data[:i]))
		if i < len(data) {
			i++
		}
		data = data[i:]
	}
	// The encoder walks outermost-first; rebuild in reverse so With
	// reproduces the original chain order.
	var s *HideSet
	for i := len(names) - 1; i >= 1; i-- {
		s = s.With(names[i])
	}
	if len(names) > 0 {
		h.name = names[0]
		h.rest = s
	}
	return nil
}

// Token is one lexical token with its source position. Tokens are treated as
// immutable after creation; derived tokens (from macro expansion or pasting)
// copy and modify.
//
// The one-byte fields sit together at the end, which makes a Token 64 bytes
// instead of 80: tokens are copied by value through every stage, and token
// arrays are a large part of the heap the collector scans. Every literal is
// keyed and gob encodes by field name, so the order is free to choose.
type Token struct {
	Text     string
	File     string
	Line     int
	Col      int
	Hide     *HideSet // macro names painted onto this token
	Kind     Kind
	HasSpace bool // preceded by whitespace or a comment on the same line
	Expanded bool // produced by macro expansion (for diagnostics/stats)
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case EOF:
		return "<eof>"
	case Newline:
		return "<nl>"
	}
	return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
}

// Pos renders the file:line:col position.
func (t Token) Pos() string {
	return fmt.Sprintf("%s:%d:%d", t.File, t.Line, t.Col)
}

// Is reports whether the token is a punctuator with the given text.
func (t Token) Is(punct string) bool {
	return t.Kind == Punct && t.Text == punct
}

// IsIdent reports whether the token is an identifier with the given text.
func (t Token) IsIdent(name string) bool {
	return t.Kind == Identifier && t.Text == name
}
