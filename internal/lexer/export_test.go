package lexer

import "repro/internal/token"

// lexSlow lexes src through slowNext alone: the splice-aware reference
// scanner that Lex's fast path must agree with token for token. It returns
// the lexer for its Comments and Splices counts.
func lexSlow(file string, src []byte) ([]token.Token, *Lexer, error) {
	l := New(file, src)
	var toks []token.Token
	for {
		t, err := l.slowNext()
		if err != nil {
			return toks, l, err
		}
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, l, nil
		}
	}
}

// LexSlow exposes lexSlow to the external test package, which times it
// against Lex on the generated corpus.
func LexSlow(file string, src []byte) ([]token.Token, error) {
	toks, _, err := lexSlow(file, src)
	return toks, err
}
