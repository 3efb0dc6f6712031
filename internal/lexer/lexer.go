// Package lexer converts C source text into tokens.
//
// The lexer is the first of SuperC's three steps (paper §2, Table 1 "Lexer"
// row). It strips layout — whitespace and comments — recording only a
// HasSpace bit on the following token (enough for correct stringification
// and for diagnostics), splices backslash-newline continuations, and emits
// Newline tokens so the preprocessor can recognize directive lines. All
// words lex as identifiers; keywords are reclassified at parse time because
// the preprocessor may define or expand macros named like keywords.
//
// Two scanners share one cursor. fastNext reads raw bytes through class
// tables and slices token texts out of the file's source string, so a token
// costs no allocation. It declines any token that touches a backslash that
// may splice, a lone carriage return, an L"/L' prefix, or an unterminated
// comment or literal; slowNext, the splice-aware character-at-a-time
// scanner, lexes those. Both produce identical tokens wherever the fast
// path applies, which the package's differential fuzz target checks.
package lexer

import (
	"fmt"
	"strings"

	"repro/internal/guard"
	"repro/internal/token"
)

// Error describes a lexical error with its position.
type Error struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
}

// punctuators, longest first within each starting byte, covering C89/C99,
// the preprocessor operators # and ##, and the C95 digraphs (which lex to
// their canonical spellings so the rest of the pipeline never sees them).
var punctuators = []string{
	"%:%:", // digraph ##
	"...", "<<=", ">>=",
	"<%", "%>", "<:", ":>", "%:", // digraphs { } [ ] #
	"->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "##",
	"[", "]", "(", ")", "{", "}", ".", "&", "*", "+", "-", "~", "!",
	"/", "%", "<", ">", "^", "|", "?", ":", ";", "=", ",", "#",
}

// digraphs maps the alternative spellings to their canonical punctuators.
var digraphs = map[string]string{
	"<%": "{", "%>": "}", "<:": "[", ":>": "]", "%:": "#", "%:%:": "##",
}

// punct is one punctuator spelling and the text it lexes to.
type punct struct{ spell, text string }

// Fast-path tables, indexed by byte.
var (
	// punctsByFirst holds the punctuators starting with each byte, in the
	// table's longest-first order, so the first match is the longest.
	punctsByFirst [256][]punct
	// otherText is the text of a single-byte Other token: the byte as a
	// rune, as slowNext's string(c) spells it.
	otherText [256]string
	// class marks identifier-start, identifier-continue and pp-number
	// bytes.
	class [256]uint8
)

const (
	identStart = 1 << iota // [A-Za-z_$]
	identCont              // identStart or a digit
	ppNumber               // identCont or '.'
)

func init() {
	for _, p := range punctuators {
		text := p
		if canon, ok := digraphs[p]; ok {
			text = canon
		}
		punctsByFirst[p[0]] = append(punctsByFirst[p[0]], punct{p, text})
	}
	for i := range otherText {
		c := byte(i)
		otherText[i] = string(rune(c))
		switch {
		case isIdentStart(c):
			class[i] = identStart | identCont | ppNumber
		case isIdentCont(c):
			class[i] = identCont | ppNumber
		case c == '.':
			class[i] = ppNumber
		}
	}
}

// Lexer scans one file. Create with New, then call Tokens.
type Lexer struct {
	file string
	src  []byte
	text string // src as a string; fast-path token texts are substrings of it
	pos  int
	line int
	col  int

	// pending space flag for the next token
	hasSpace bool

	// budget, when set, bounds the number of tokens produced; nil in the
	// common path costs one pointer check per token.
	budget *guard.Budget

	// Stats
	Comments int // number of comments stripped
	Splices  int // number of line continuations spliced
}

// New returns a lexer over src, reporting positions against file.
func New(file string, src []byte) *Lexer {
	return &Lexer{file: file, src: src, text: string(src), line: 1, col: 1}
}

// Lex tokenizes the entire source, returning the token slice terminated by
// an EOF token. Newline tokens mark logical line ends.
func Lex(file string, src []byte) ([]token.Token, error) {
	lx := New(file, src)
	return lx.Tokens()
}

// LexBudget is Lex under a resource budget: each produced token charges
// guard.AxisTokens, and a trip truncates the stream — the tokens lexed so
// far are returned terminated by EOF, with no error. Degradation, not
// failure: the caller inspects the budget for the diagnostic.
func LexBudget(file string, src []byte, b *guard.Budget) ([]token.Token, error) {
	lx := New(file, src)
	lx.budget = b
	return lx.Tokens()
}

// SetBudget attaches a resource budget to the lexer.
func (l *Lexer) SetBudget(b *guard.Budget) { l.budget = b }

// Tokens scans all remaining input.
func (l *Lexer) Tokens() ([]token.Token, error) {
	// Size the result for 2.5 source bytes a token, newlines included:
	// denser than the generated corpus (3.6), the giant unit (2.7) or the
	// system headers (7.4), so the array rarely grows. Growing copies every
	// token, which costs about as much as lexing them.
	toks := make([]token.Token, 0, (len(l.src)-l.pos)*2/5+1)
	for {
		if !l.budget.Charge("lexer", guard.AxisTokens, 1) {
			return append(toks, token.Token{Kind: token.EOF, File: l.file, Line: l.line, Col: l.col}), nil
		}
		toks = append(toks, token.Token{})
		t := &toks[len(toks)-1]
		if !l.fastNext(t) {
			var err error
			if *t, err = l.slowNext(); err != nil {
				return toks[:len(toks)-1], err
			}
		}
		if t.Kind == token.EOF {
			return toks, nil
		}
	}
}

// peek returns the byte at offset d from the cursor after collapsing
// backslash-newline splices, and the number of raw bytes the splice-aware
// step consumed. It does not advance.
func (l *Lexer) peekByte() (byte, bool) {
	p := l.pos
	for {
		if p >= len(l.src) {
			return 0, false
		}
		if l.src[p] == '\\' && p+1 < len(l.src) && (l.src[p+1] == '\n' || (l.src[p+1] == '\r' && p+2 < len(l.src) && l.src[p+2] == '\n')) {
			if l.src[p+1] == '\r' {
				p += 3
			} else {
				p += 2
			}
			continue
		}
		return l.src[p], true
	}
}

// advance consumes one logical character, handling splices and position
// tracking, and returns it.
func (l *Lexer) advance() (byte, bool) {
	for {
		if l.pos >= len(l.src) {
			return 0, false
		}
		c := l.src[l.pos]
		if c == '\\' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\n' {
				l.pos += 2
				l.line++
				l.col = 1
				l.Splices++
				continue
			}
			if l.pos+2 < len(l.src) && l.src[l.pos+1] == '\r' && l.src[l.pos+2] == '\n' {
				l.pos += 3
				l.line++
				l.col = 1
				l.Splices++
				continue
			}
		}
		l.pos++
		if c == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		return c, true
	}
}

// fastNext scans layout and the next token straight from the raw bytes.
// It reports false, with the token unconsumed, when the token needs
// slowNext: it touches a backslash that may splice, starts at a lone
// carriage return, has an L"/L' prefix, or is an unterminated comment or
// literal. Layout skipped before such a token stays consumed; slowNext
// resumes from the same cursor state it would have reached itself.
func (l *Lexer) fastNext(t *token.Token) bool {
	src := l.src
	for {
		p := l.pos
		if p >= len(src) {
			*t = l.mk(token.EOF, "")
			return true
		}
		c := src[p]
		switch c {
		case ' ', '\t', '\v', '\f':
			l.pos++
			l.col++
			l.hasSpace = true
			continue
		case '\n', '\r':
			n := 1
			if c == '\r' {
				if p+1 >= len(src) || src[p+1] != '\n' {
					return false
				}
				n = 2
			}
			*t = token.Token{Kind: token.Newline, File: l.file, Line: l.line, Col: l.col, HasSpace: l.hasSpace}
			l.pos += n
			l.line++
			l.col = 1
			l.hasSpace = false
			return true
		case '/':
			if p+1 >= len(src) {
				break
			}
			switch src[p+1] {
			case '/':
				e := p + 2
				for e < len(src) && src[e] != '\n' && src[e] != '\r' && src[e] != '\\' {
					e++
				}
				if e < len(src) && src[e] == '\\' {
					return false
				}
				l.col += e - p
				l.pos = e
				l.Comments++
				l.hasSpace = true
				continue
			case '*':
				// The body starts after "/*", so "/*/" does not close.
				body := l.text[p+2:]
				end := strings.Index(body, "*/")
				if end < 0 || strings.IndexByte(body[:end], '\\') >= 0 {
					return false
				}
				if nl := strings.Count(body[:end], "\n"); nl > 0 {
					l.line += nl
					l.col = end + 2 - strings.LastIndexByte(body[:end], '\n')
				} else {
					l.col += end + 4
				}
				l.pos = p + 2 + end + 2
				l.Comments++
				l.hasSpace = true
				continue
			}
		}
		return l.fastToken(t, p, c)
	}
}

// fastToken scans the token starting with byte c at offset p.
func (l *Lexer) fastToken(t *token.Token, p int, c byte) bool {
	src := l.src
	e := p + 1
	var kind token.Kind
	var text string
	switch {
	case class[c]&identStart != 0:
		if c == 'L' && e < len(src) && (src[e] == '"' || src[e] == '\'') {
			return false
		}
		for e < len(src) && class[src[e]]&identCont != 0 {
			e++
		}
		kind, text = token.Identifier, l.text[p:e]
	case c >= '0' && c <= '9' || c == '.' && e < len(src) && src[e] >= '0' && src[e] <= '9':
		for e = p; e < len(src) && class[src[e]]&ppNumber != 0; {
			d := src[e]
			e++
			if (d|0x20 == 'e' || d|0x20 == 'p') && e < len(src) && (src[e] == '+' || src[e] == '-') {
				e++
			}
		}
		kind, text = token.Number, l.text[p:e]
	case c == '"' || c == '\'':
		for {
			if e >= len(src) || src[e] == '\n' {
				return false // unterminated
			}
			d := src[e]
			if d == '\\' {
				// An escape takes the next byte blindly. Before a newline
				// the backslash splices instead, so defer. Every other
				// splice slowNext would find here, a CRLF one or one after
				// an escaped backslash, leaves a newline in the literal,
				// which defers above.
				if e+1 >= len(src) || src[e+1] == '\n' {
					return false
				}
				e += 2
				continue
			}
			e++
			if d == c {
				break
			}
		}
		kind, text = token.String, l.text[p:e]
		if c == '\'' {
			kind = token.Char
		}
	case c == '\\':
		return false
	default:
		kind, text = token.Other, otherText[c]
		if cands := punctsByFirst[c]; cands != nil {
			// A backslash anywhere a punctuator could reach may splice
			// a longer one together.
			if strings.IndexByte(l.text[e:min(p+len(cands[0].spell), len(src))], '\\') >= 0 {
				return false
			}
			for _, pc := range cands {
				if strings.HasPrefix(l.text[p:], pc.spell) {
					kind, text, e = token.Punct, pc.text, p+len(pc.spell)
					break
				}
			}
		}
	}
	// A backslash right after an identifier or number may splice it onto
	// what follows.
	if (kind == token.Identifier || kind == token.Number) && e < len(src) && src[e] == '\\' {
		return false
	}
	*t = token.Token{Kind: kind, Text: text, File: l.file, Line: l.line, Col: l.col, HasSpace: l.hasSpace}
	l.col += e - p
	l.pos = e
	l.hasSpace = false
	return true
}

// slowNext returns the next token, collapsing backslash-newline splices
// character by character. It is the general scanner: fastNext defers to it
// for every token that touches a splice or ends in an error.
func (l *Lexer) slowNext() (token.Token, error) {
	for {
		c, ok := l.peekByte()
		if !ok {
			return l.mk(token.EOF, ""), nil
		}
		switch {
		case c == '\n' || c == '\r':
			line, col := l.line, l.col
			l.advance()
			if c == '\r' {
				if c2, ok := l.peekByte(); ok && c2 == '\n' {
					l.advance()
				}
			}
			t := token.Token{Kind: token.Newline, File: l.file, Line: line, Col: col, HasSpace: l.hasSpace}
			l.hasSpace = false
			return t, nil
		case c == ' ' || c == '\t' || c == '\v' || c == '\f':
			l.advance()
			l.hasSpace = true
		case c == '/':
			// Possible comment.
			save := *l
			l.advance()
			c2, ok := l.peekByte()
			switch {
			case ok && c2 == '/':
				// Line comment: consume to (but not including) newline.
				for {
					c3, ok := l.peekByte()
					if !ok || c3 == '\n' || c3 == '\r' {
						break
					}
					l.advance()
				}
				l.Comments++
				l.hasSpace = true
			case ok && c2 == '*':
				l.advance()
				if err := l.skipBlockComment(); err != nil {
					return token.Token{}, err
				}
				l.Comments++
				l.hasSpace = true
			default:
				*l = save
				return l.punct()
			}
		default:
			return l.scanToken(c)
		}
	}
}

func (l *Lexer) skipBlockComment() error {
	startLine, startCol := l.line, l.col
	var prev byte
	for {
		c, ok := l.advance()
		if !ok {
			return &Error{File: l.file, Line: startLine, Col: startCol, Msg: "unterminated block comment"}
		}
		if prev == '*' && c == '/' {
			return nil
		}
		prev = c
	}
}

func (l *Lexer) mk(kind token.Kind, text string) token.Token {
	t := token.Token{
		Kind: kind, Text: text, File: l.file,
		Line: l.line, Col: l.col, HasSpace: l.hasSpace,
	}
	l.hasSpace = false
	return t
}

func (l *Lexer) scanToken(c byte) (token.Token, error) {
	switch {
	case isIdentStart(c):
		// Wide string/char prefix: L"..." or L'...'
		if c == 'L' {
			save := *l
			l.advance()
			if c2, ok := l.peekByte(); ok && (c2 == '"' || c2 == '\'') {
				return l.scanQuoted(c2, "L")
			}
			*l = save
		}
		return l.scanIdent()
	case c >= '0' && c <= '9':
		return l.scanNumber()
	case c == '.':
		// .digit starts a pp-number; otherwise punctuator.
		save := *l
		l.advance()
		if c2, ok := l.peekByte(); ok && c2 >= '0' && c2 <= '9' {
			*l = save
			return l.scanNumber()
		}
		*l = save
		return l.punct()
	case c == '"' || c == '\'':
		return l.scanQuoted(c, "")
	default:
		return l.punct()
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '$' // $ is a common extension
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *Lexer) scanIdent() (token.Token, error) {
	line, col, space := l.line, l.col, l.hasSpace
	var b strings.Builder
	for {
		c, ok := l.peekByte()
		if !ok || !isIdentCont(c) {
			break
		}
		l.advance()
		b.WriteByte(c)
	}
	l.hasSpace = false
	return token.Token{Kind: token.Identifier, Text: b.String(), File: l.file, Line: line, Col: col, HasSpace: space}, nil
}

// scanNumber scans a preprocessing number: a superset of C numeric literals
// (C standard 6.4.8): digits, identifier characters, '.', and exponent signs
// after e/E/p/P.
func (l *Lexer) scanNumber() (token.Token, error) {
	line, col, space := l.line, l.col, l.hasSpace
	var b strings.Builder
	for {
		c, ok := l.peekByte()
		if !ok {
			break
		}
		if isIdentCont(c) || c == '.' {
			l.advance()
			b.WriteByte(c)
			if c == 'e' || c == 'E' || c == 'p' || c == 'P' {
				if c2, ok := l.peekByte(); ok && (c2 == '+' || c2 == '-') {
					l.advance()
					b.WriteByte(c2)
				}
			}
			continue
		}
		break
	}
	l.hasSpace = false
	return token.Token{Kind: token.Number, Text: b.String(), File: l.file, Line: line, Col: col, HasSpace: space}, nil
}

func (l *Lexer) scanQuoted(quote byte, prefix string) (token.Token, error) {
	line, col, space := l.line, l.col, l.hasSpace
	var b strings.Builder
	b.WriteString(prefix)
	c, _ := l.advance() // opening quote
	b.WriteByte(c)
	for {
		c, ok := l.advance()
		if !ok || c == '\n' {
			return token.Token{}, &Error{File: l.file, Line: line, Col: col,
				Msg: fmt.Sprintf("unterminated %c literal", quote)}
		}
		b.WriteByte(c)
		if c == '\\' {
			// Escaped character: consume it blindly.
			c2, ok := l.advance()
			if !ok {
				return token.Token{}, &Error{File: l.file, Line: line, Col: col,
					Msg: "unterminated escape"}
			}
			b.WriteByte(c2)
			continue
		}
		if c == quote {
			break
		}
	}
	kind := token.String
	if quote == '\'' {
		kind = token.Char
	}
	l.hasSpace = false
	return token.Token{Kind: kind, Text: b.String(), File: l.file, Line: line, Col: col, HasSpace: space}, nil
}

func (l *Lexer) punct() (token.Token, error) {
	line, col, space := l.line, l.col, l.hasSpace
	// Longest-match against the punctuator table using splice-aware peeking.
	for _, p := range punctuators {
		if l.matches(p) {
			for range p {
				l.advance()
			}
			l.hasSpace = false
			text := p
			if canon, ok := digraphs[p]; ok {
				text = canon
			}
			return token.Token{Kind: token.Punct, Text: text, File: l.file, Line: line, Col: col, HasSpace: space}, nil
		}
	}
	c, _ := l.advance()
	l.hasSpace = false
	return token.Token{Kind: token.Other, Text: string(c), File: l.file, Line: line, Col: col, HasSpace: space}, nil
}

// matches reports whether the splice-collapsed input starts with s.
func (l *Lexer) matches(s string) bool {
	save := *l
	defer func() { *l = save }()
	for i := 0; i < len(s); i++ {
		c, ok := l.peekByte()
		if !ok || c != s[i] {
			return false
		}
		l.advance()
	}
	return true
}

// StripEOF removes the trailing EOF token if present; convenient for
// splicing token slices.
func StripEOF(toks []token.Token) []token.Token {
	if n := len(toks); n > 0 && toks[n-1].Kind == token.EOF {
		return toks[:n-1]
	}
	return toks
}
