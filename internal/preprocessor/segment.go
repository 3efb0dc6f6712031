// Package preprocessor implements SuperC's configuration-preserving
// preprocessor (paper §3). It performs all preprocessor operations — file
// includes, macro (un)definitions, object- and function-like macro
// expansion, token pasting, stringification — while leaving static
// conditionals intact, so that a program's full variability survives into
// parsing. Conditionals that end up embedded inside preprocessor operations
// are hoisted around them (Algorithm 1), because preprocessor operations are
// only defined over ordinary tokens.
//
// The output is a token forest: a sequence of segments, each either an
// ordinary token or a static conditional whose branches are themselves
// segment sequences. A unit's top level is packed into chunks (stream.go),
// which the FMLR parser consumes directly.
package preprocessor

import (
	"strings"

	"repro/internal/cond"
	"repro/internal/token"
)

// Segment is one element of preprocessor output: exactly one of Tok and
// Cond is non-nil.
type Segment struct {
	Tok  *token.Token
	Cond *Conditional
}

// Conditional is a static conditional preserved in the output. Branch
// conditions are relative to the enclosing context and mutually exclusive;
// they need not cover the whole space (a missing #else is simply absent, the
// "implicit branch" of the paper).
type Conditional struct {
	Branches []Branch
}

// Branch is one arm of a Conditional.
type Branch struct {
	Cond cond.Cond // presence condition relative to the enclosing context
	Segs []Segment
}

// TokSeg wraps a token as a segment.
func TokSeg(t token.Token) Segment {
	return Segment{Tok: &t}
}

// CondSeg wraps a conditional as a segment.
func CondSeg(c *Conditional) Segment {
	return Segment{Cond: c}
}

// IsToken reports whether the segment is an ordinary token.
func (s Segment) IsToken() bool { return s.Tok != nil }

// TokensOf converts a plain token slice to segments.
func TokensOf(toks []token.Token) []Segment {
	return appendTokenSegs(make([]Segment, 0, len(toks)), toks)
}

// appendTokenSegs appends one segment per token to dst, each pointing at
// the token in toks (no token copies).
func appendTokenSegs(dst []Segment, toks []token.Token) []Segment {
	for i := range toks {
		dst = append(dst, Segment{Tok: &toks[i]})
	}
	return dst
}

// CountTokens returns the total number of ordinary tokens in the forest,
// counting each conditional branch's tokens.
func CountTokens(segs []Segment) int {
	n := 0
	for _, s := range segs {
		if s.IsToken() {
			n++
			continue
		}
		for _, b := range s.Cond.Branches {
			n += CountTokens(b.Segs)
		}
	}
	return n
}

// MaxDepth returns the deepest conditional nesting in the forest.
func MaxDepth(segs []Segment) int {
	max := 0
	for _, s := range segs {
		if s.IsToken() {
			continue
		}
		for _, b := range s.Cond.Branches {
			if d := 1 + MaxDepth(b.Segs); d > max {
				max = d
			}
		}
	}
	return max
}

// Alternative is one result branch of hoisting: a presence condition and the
// plain tokens present under it.
type Alternative struct {
	Cond cond.Cond
	Toks []token.Token
}

// Hoist implements paper Algorithm 1: it takes a presence condition c and a
// segment list t (ordinary tokens and entire conditionals), and returns the
// conditional hoisted to the top — a list of alternatives whose branches
// contain only ordinary tokens. Infeasible alternatives are trimmed. The
// limit caps the number of alternatives; when exceeded, Hoist returns ok =
// false (the caller falls back to leaving the operation unexpanded).
func Hoist(s *cond.Space, c cond.Cond, t []Segment, limit int) (alts []Alternative, ok bool) {
	// Line 3: initialize with one empty branch under c.
	alts = []Alternative{{Cond: c}}
	for _, a := range t {
		if a.IsToken() {
			// Lines 5-7: append the token to all branches.
			for i := range alts {
				alts[i].Toks = append(alts[i].Toks[:len(alts[i].Toks):len(alts[i].Toks)], *a.Tok)
			}
			continue
		}
		// Lines 8-13: recursively hoist each branch, then cross product.
		var b []Alternative
		covered := s.False()
		for _, br := range a.Cond.Branches {
			sub, ok := Hoist(s, br.Cond, br.Segs, limit)
			if !ok {
				return nil, false
			}
			b = append(b, sub...)
			covered = s.Or(covered, br.Cond)
		}
		// The implicit else branch contributes an empty token list.
		rest := s.Not(covered)
		if !s.IsFalse(rest) {
			b = append(b, Alternative{Cond: rest})
		}
		var next []Alternative
		for _, ci := range alts {
			for _, cj := range b {
				merged := s.And(ci.Cond, cj.Cond)
				if s.IsFalse(merged) {
					continue
				}
				toks := make([]token.Token, 0, len(ci.Toks)+len(cj.Toks))
				toks = append(toks, ci.Toks...)
				toks = append(toks, cj.Toks...)
				next = append(next, Alternative{Cond: merged, Toks: toks})
				if limit > 0 && len(next) > limit {
					return nil, false
				}
			}
		}
		alts = next
	}
	return alts, true
}

// altsToSegments converts hoisted alternatives back into a single segment:
// a token run if there is one alternative covering c, otherwise a
// conditional with one branch per alternative.
func altsToSegments(s *cond.Space, c cond.Cond, alts []Alternative) []Segment {
	if len(alts) == 1 && s.Equal(alts[0].Cond, c) {
		return TokensOf(alts[0].Toks)
	}
	cnd := &Conditional{}
	for _, a := range alts {
		cnd.Branches = append(cnd.Branches, Branch{Cond: a.Cond, Segs: TokensOf(a.Toks)})
	}
	return []Segment{CondSeg(cnd)}
}

// FlattenText renders the forest as preprocessed source text with #if/#endif
// markers for conditionals, for diagnostics and golden tests.
func FlattenText(s *cond.Space, segs []Segment) string {
	var b strings.Builder
	writeSegs(s, &b, segs)
	return b.String()
}

func writeSegs(s *cond.Space, b *strings.Builder, segs []Segment) {
	for _, sg := range segs {
		if sg.IsToken() {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(sg.Tok.Text)
			continue
		}
		for i, br := range sg.Cond.Branches {
			if b.Len() > 0 {
				b.WriteByte('\n')
			}
			if i == 0 {
				b.WriteString("#if " + s.String(br.Cond))
			} else {
				b.WriteString("#elif " + s.String(br.Cond))
			}
			b.WriteByte('\n')
			writeSegs(s, b, br.Segs)
			b.WriteByte('\n')
		}
		b.WriteString("#endif")
	}
}

// Tokens flattens the forest to a single configuration's token stream by
// evaluating each branch condition under the given assignment. It is used by
// tests to cross-check configuration-preserving output against
// single-configuration preprocessing.
func Tokens(s *cond.Space, segs []Segment, assign map[string]bool) []token.Token {
	var out []token.Token
	for _, sg := range segs {
		if sg.IsToken() {
			out = append(out, *sg.Tok)
			continue
		}
		for _, br := range sg.Cond.Branches {
			if s.Eval(br.Cond, assign) {
				out = append(out, Tokens(s, br.Segs, assign)...)
				break
			}
		}
	}
	return out
}
