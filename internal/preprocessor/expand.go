package preprocessor

import (
	"strings"

	"repro/internal/cond"
	"repro/internal/guard"
	"repro/internal/lexer"
	"repro/internal/token"
)

// maxExpandDepth bounds macro-expansion recursion as a safety net beyond
// hide sets.
const maxExpandDepth = 200

// hoistLimit caps the number of alternatives produced when hoisting
// conditionals around preprocessor operations. Operations that would exceed
// it are left unexpanded with a diagnostic (a pragmatic kill switch; real
// code stays far below it).
const hoistLimit = 512

// expandSegments performs macro expansion on segs under presence condition
// c, returning the expanded forest. It implements cpp's scanning semantics
// (substitute, then rescan together with the rest of the input) extended
// with conditionals: multiply-defined macros expand to conditionals, and
// conditionals embedded in function-like invocations are hoisted around the
// invocation (paper §3.1).
func (p *Preprocessor) expandSegments(segs []Segment, c cond.Cond, depth int) []Segment {
	if depth > maxExpandDepth {
		p.errorf(token.Token{}, "macro expansion too deep")
		return segs
	}
	// One allocation up front: growing by doubling recopies the
	// pointer-bearing segments under write barriers on every flush.
	out := make([]Segment, 0, len(segs))
	in := segs
	for len(in) > 0 {
		// Loop-head budget check: each rescanning step charges the
		// macro-steps axis; a macro-expansion bomb trips here. On trip the
		// remaining input is passed through unexpanded — partial progress,
		// not failure.
		if !p.budget.Charge("preprocessor", guard.AxisMacroSteps, 1) {
			return append(out, in...)
		}
		s := in[0]
		if s.Cond != nil {
			expanded := p.expandConditional(s.Cond, c, depth)
			// A branch ending in a function-like macro name may be an
			// invocation whose arguments follow the conditional (paper
			// Fig. 4): hoist the conditional around the invocation.
			if len(in) > 1 && p.trailingFuncLike(expanded, c) {
				if res, consumed, ok := p.expandInvocation(append([]Segment{CondSeg(expanded)}, in[1:]...), c, depth); ok {
					out = append(out, res...)
					in = in[consumed:]
					continue
				}
			}
			out = append(out, CondSeg(expanded))
			in = in[1:]
			continue
		}
		t := *s.Tok
		if t.Kind != token.Identifier || t.Hide.Contains(t.Text) {
			out = append(out, s)
			in = in[1:]
			continue
		}
		if isDynamicBuiltin(t.Text) {
			p.stats.BuiltinUses++
			for _, bt := range dynamicBuiltin(t.Text, t, p.nextCounter) {
				out = append(out, TokSeg(bt))
			}
			in = in[1:]
			continue
		}
		defs, free := p.macros.Lookup(t.Text, c)
		if !hasRealDef(defs) {
			out = append(out, s)
			in = in[1:]
			continue
		}
		if anyFuncLike(defs) {
			if res, consumed, ok := p.expandInvocation(in, c, depth); ok {
				out = append(out, res...)
				in = in[consumed:]
				continue
			}
			// Could not parse an invocation: leave the name alone.
			out = append(out, s)
			in = in[1:]
			continue
		}
		// Object-like (possibly multiply-defined).
		p.stats.Invocations++
		if t.Expanded {
			p.stats.NestedInvocations++
		}
		if DefaultBuiltins[t.Text] != "" || p.builtinNames[t.Text] {
			p.stats.BuiltinUses++
		}
		if single, onlyOne := singleCovering(p.space, defs, free, c); onlyOne {
			// Exactly one definition covers the whole use condition:
			// substitute and rescan.
			body := p.objectBody(single, t)
			in = append(TokensOf(body), in[1:]...)
			continue
		}
		// Multiply-defined: the use propagates an implicit conditional.
		p.stats.TrimmedInvocations++
		cnd := &Conditional{}
		for _, ad := range defs {
			var segs []Segment
			if ad.Def == nil {
				segs = []Segment{TokSeg(hideSelf(t))}
			} else if ad.Def.FuncLike {
				// Handled by the anyFuncLike path; unreachable here.
				segs = []Segment{TokSeg(hideSelf(t))}
			} else {
				segs = TokensOf(p.objectBody(ad.Def, t))
			}
			cnd.Branches = append(cnd.Branches, Branch{Cond: ad.Cond, Segs: segs})
		}
		if !p.space.IsFalse(free) {
			cnd.Branches = append(cnd.Branches, Branch{Cond: free, Segs: []Segment{TokSeg(hideSelf(t))}})
		}
		// Prepend for rescanning: nested macros inside the branches expand,
		// and a trailing function-like name picks up following arguments.
		in = append([]Segment{CondSeg(cnd)}, in[1:]...)
	}
	return out
}

// expandConditional expands each feasible branch of cnd under c.
func (p *Preprocessor) expandConditional(cnd *Conditional, c cond.Cond, depth int) *Conditional {
	out := &Conditional{}
	for _, br := range cnd.Branches {
		bc := p.space.And(c, br.Cond)
		if p.space.IsFalse(bc) {
			continue
		}
		out.Branches = append(out.Branches, Branch{
			Cond: br.Cond,
			Segs: p.expandSegments(br.Segs, bc, depth+1),
		})
	}
	return out
}

func hasRealDef(defs []ActiveDef) bool {
	for _, d := range defs {
		if d.Def != nil {
			return true
		}
	}
	return false
}

func anyFuncLike(defs []ActiveDef) bool {
	for _, d := range defs {
		if d.Def != nil && d.Def.FuncLike {
			return true
		}
	}
	return false
}

// singleCovering reports whether defs consists of exactly one definition
// whose condition covers all of c (and the free condition is empty).
func singleCovering(s *cond.Space, defs []ActiveDef, free cond.Cond, c cond.Cond) (*MacroDef, bool) {
	if len(defs) != 1 || defs[0].Def == nil || !s.IsFalse(free) {
		return nil, false
	}
	if !s.Equal(defs[0].Cond, c) {
		return nil, false
	}
	return defs[0].Def, true
}

// hideSelf returns a copy of t with its own name added to the hide set, so
// that a name deliberately left unexpanded is not reconsidered.
func hideSelf(t token.Token) token.Token {
	t.Hide = t.Hide.With(t.Text)
	return t
}

// objectBody instantiates an object-like macro body at a use site: body
// tokens take the use position, the use's hide set extended with the macro
// name, and the Expanded mark.
func (p *Preprocessor) objectBody(def *MacroDef, use token.Token) []token.Token {
	out := make([]token.Token, len(def.Body))
	for i, bt := range def.Body {
		nt := bt
		nt.File, nt.Line, nt.Col = use.File, use.Line, use.Col
		nt.Hide = use.Hide.With(def.Name)
		nt.Expanded = true
		if i == 0 {
			nt.HasSpace = use.HasSpace
		}
		out[i] = nt
	}
	return out
}

// trailingFuncLike reports whether some feasible branch of cnd ends with an
// identifier naming an active function-like macro — the trigger for
// invocation hoisting across a conditional.
func (p *Preprocessor) trailingFuncLike(cnd *Conditional, c cond.Cond) bool {
	for _, br := range cnd.Branches {
		bc := p.space.And(c, br.Cond)
		if p.space.IsFalse(bc) || len(br.Segs) == 0 {
			continue
		}
		last := br.Segs[len(br.Segs)-1]
		if last.Cond != nil {
			if p.trailingFuncLike(last.Cond, bc) {
				return true
			}
			continue
		}
		t := last.Tok
		if t.Kind != token.Identifier || t.Hide.Contains(t.Text) {
			continue
		}
		defs, _ := p.macros.Lookup(t.Text, bc)
		if anyFuncLike(defs) {
			return true
		}
	}
	return false
}

// invState is one partial parse of a function-like invocation under a
// presence condition — the interleaved parsing-with-hoisting state of paper
// §3.1. States split at conditionals and track parentheses and commas
// independently per configuration.
type invState struct {
	cond   cond.Cond
	prefix []token.Token // tokens before the (possible) macro name
	name   *token.Token  // the candidate macro name, nil if this alternative has none
	toks   []token.Token // collected invocation tokens: "(" ... ")"
	depth  int           // parenthesis nesting; 0 before "("
	status invStatus
	endSeg int       // top-level segments consumed when the state finished
	rest   []Segment // branch content after completion (mid-conditional leftovers)
}

type invStatus uint8

const (
	invScanning invStatus = iota // waiting for "(" or collecting arguments
	invComplete                  // balanced invocation collected
	invNotCall                   // next token was not "(": not an invocation
)

// expandInvocation expands a (possibly conditional) function-like macro
// invocation starting at in[0]. in[0] is either the macro name token or a
// conditional some of whose branches end in a macro name; following
// segments supply the argument list, possibly split across conditionals.
// It returns the replacement segments, the number of input segments
// consumed, and whether an invocation was recognized and expanded.
func (p *Preprocessor) expandInvocation(in []Segment, c cond.Cond, depth int) ([]Segment, int, bool) {
	// Seed states from the hoisted head segment.
	headAlts, ok := p.hoistGuard(c, in[:1])
	if !ok {
		p.stats.HoistOverflows++
		return nil, 0, false
	}
	var states []*invState
	sawCandidate := false
	for _, alt := range headAlts {
		st := &invState{cond: alt.Cond, endSeg: 1}
		if n := len(alt.Toks); n > 0 {
			last := alt.Toks[n-1]
			if last.Kind == token.Identifier && !last.Hide.Contains(last.Text) {
				if defs, _ := p.macros.Lookup(last.Text, alt.Cond); anyFuncLike(defs) {
					st.prefix = alt.Toks[:n-1]
					lastCopy := last
					st.name = &lastCopy
					sawCandidate = true
					states = append(states, st)
					continue
				}
			}
			st.prefix = alt.Toks
		}
		st.status = invNotCall
		states = append(states, st)
	}
	if !sawCandidate {
		return nil, 0, false
	}

	// Step states through the following segments until all are resolved.
	consumed := 1
	for i := 1; i < len(in); i++ {
		if allResolved(states) {
			break
		}
		var next []*invState
		okStep := true
		for _, st := range states {
			if st.status != invScanning {
				next = append(next, st)
				continue
			}
			stepped, ok := p.stepState(st, in[i], i)
			if !ok {
				okStep = false
				break
			}
			next = append(next, stepped...)
		}
		if !okStep || len(next) > hoistLimit {
			p.stats.HoistOverflows++
			return nil, 0, false
		}
		states = next
		consumed = i + 1
	}
	// States still scanning at end of input never complete: treat as
	// not-a-call (their collected tokens are ordinary content).
	anyInvocation := false
	for _, st := range states {
		if st.status == invScanning {
			st.status = invNotCall
			st.endSeg = consumed
		}
		if st.status == invComplete {
			anyInvocation = true
		}
	}
	if !anyInvocation {
		return nil, 0, false
	}
	// Shrink consumption to what resolved states actually used.
	maxEnd := 1
	for _, st := range states {
		if st.endSeg > maxEnd {
			maxEnd = st.endSeg
		}
	}
	consumed = maxEnd

	hoisted := len(states) > 1 || len(headAlts) > 1
	if hoisted {
		p.stats.HoistedInvocations++
	}

	// Assemble the result: one branch per state (split further by
	// definition alternative).
	var branches []Branch
	for _, st := range states {
		branches = append(branches, p.assembleInvocation(st, in, consumed, depth)...)
	}
	if len(branches) == 1 && p.space.Equal(p.space.And(c, branches[0].Cond), c) {
		return branches[0].Segs, consumed, true
	}
	return []Segment{CondSeg(&Conditional{Branches: branches})}, consumed, true
}

func allResolved(states []*invState) bool {
	for _, st := range states {
		if st.status == invScanning {
			return false
		}
	}
	return true
}

// stepState advances one scanning state across one top-level segment,
// splitting at conditionals. topIndex is the segment's index in the
// enclosing input.
func (p *Preprocessor) stepState(st *invState, seg Segment, topIndex int) ([]*invState, bool) {
	if seg.IsToken() {
		p.stepToken(st, *seg.Tok, topIndex, false)
		return []*invState{st}, true
	}
	// Conditional: split the state per feasible branch, walking each
	// branch's segments; a state completing mid-branch stashes the branch's
	// remainder in rest.
	var out []*invState
	covered := p.space.False()
	for _, br := range seg.Cond.Branches {
		bc := p.space.And(st.cond, br.Cond)
		covered = p.space.Or(covered, br.Cond)
		if p.space.IsFalse(bc) {
			continue
		}
		clone := cloneState(st)
		clone.cond = bc
		sub, ok := p.walkBranch(clone, br.Segs, topIndex)
		if !ok {
			return nil, false
		}
		out = append(out, sub...)
		if len(out) > hoistLimit {
			return nil, false
		}
	}
	// Implicit branch: the conditional contributes nothing.
	rest := p.space.AndNot(st.cond, covered)
	if !p.space.IsFalse(rest) {
		clone := cloneState(st)
		clone.cond = rest
		out = append(out, clone)
	}
	return out, true
}

// walkBranch walks a state through the segments of one conditional branch.
// States that resolve mid-branch capture the branch's remaining segments as
// leftover content and stop consuming; still-scanning states continue into
// the segments after the conditional.
func (p *Preprocessor) walkBranch(st *invState, segs []Segment, topIndex int) ([]*invState, bool) {
	active := []*invState{st}
	var finished []*invState
	for i, sg := range segs {
		if len(active) == 0 {
			break
		}
		var nextActive []*invState
		for _, cur := range active {
			var stepped []*invState
			if sg.IsToken() {
				p.stepToken(cur, *sg.Tok, topIndex, true)
				stepped = []*invState{cur}
			} else {
				var ok bool
				stepped, ok = p.stepState(cur, sg, topIndex)
				if !ok {
					return nil, false
				}
			}
			for _, s2 := range stepped {
				if s2.status == invScanning {
					nextActive = append(nextActive, s2)
					continue
				}
				// Resolved during this segment: the rest of the branch is
				// leftover content under this state's condition, and the
				// whole top-level conditional segment was consumed.
				if rem := segs[i+1:]; len(rem) > 0 {
					s2.rest = append(s2.rest, rem...)
				}
				s2.endSeg = topIndex + 1
				finished = append(finished, s2)
			}
		}
		active = nextActive
		if len(active)+len(finished) > hoistLimit {
			return nil, false
		}
	}
	return append(finished, active...), true
}

// stepToken advances a scanning state over one ordinary token. insideBranch
// marks tokens consumed inside a conditional branch (affecting endSeg
// accounting: completing on a top-level token consumes through that
// segment).
func (p *Preprocessor) stepToken(st *invState, t token.Token, topIndex int, insideBranch bool) {
	if st.depth == 0 {
		if t.Is("(") {
			st.depth = 1
			st.toks = append(st.toks, t)
			return
		}
		// Not an invocation; this token is unconsumed content that will be
		// re-emitted: record it as leftover when inside a branch, otherwise
		// stop before it.
		st.status = invNotCall
		if insideBranch {
			st.rest = append(st.rest, TokSeg(t))
			st.endSeg = topIndex + 1
		} else {
			st.endSeg = topIndex
		}
		return
	}
	st.toks = append(st.toks, t)
	switch {
	case t.Is("("):
		st.depth++
	case t.Is(")"):
		st.depth--
		if st.depth == 0 {
			st.status = invComplete
			st.endSeg = topIndex + 1
		}
	}
}

func cloneState(st *invState) *invState {
	c := *st
	c.prefix = st.prefix[:len(st.prefix):len(st.prefix)]
	c.toks = st.toks[:len(st.toks):len(st.toks)]
	c.rest = st.rest[:len(st.rest):len(st.rest)]
	return &c
}

// assembleInvocation builds the output branches for one resolved state,
// splitting per feasible macro definition. in/consumed delimit the
// top-level segments the overall invocation consumed; segments between the
// state's own end and consumed are re-emitted inside its branch (they were
// only consumed on behalf of slower sibling configurations — this is the
// duplication hoisting performs).
func (p *Preprocessor) assembleInvocation(st *invState, in []Segment, consumed int, depth int) []Branch {
	tail := func() []Segment {
		var t []Segment
		t = append(t, st.rest...)
		if st.endSeg < consumed {
			t = append(t, in[st.endSeg:consumed]...)
		}
		return t
	}

	content := func(middle []Segment, bc cond.Cond) []Segment {
		var segs []Segment
		segs = append(segs, TokensOf(st.prefix)...)
		segs = append(segs, middle...)
		segs = append(segs, tail()...)
		return p.expandSegments(segs, bc, depth+1)
	}

	if st.name == nil || st.status == invNotCall {
		// No invocation under this condition: emit everything as content,
		// with the candidate name (if any) hidden so it is not retried.
		var middle []Segment
		if st.name != nil {
			middle = append(middle, TokSeg(hideSelf(*st.name)))
		}
		middle = append(middle, TokensOf(st.toks)...)
		return []Branch{{Cond: st.cond, Segs: content(middle, st.cond)}}
	}

	// Split by definition alternative at the final state condition.
	defs, free := p.macros.Lookup(st.name.Text, st.cond)
	var branches []Branch
	for _, ad := range defs {
		bc := ad.Cond
		var middle []Segment
		switch {
		case ad.Def == nil:
			middle = append(middle, TokSeg(hideSelf(*st.name)))
			middle = append(middle, TokensOf(st.toks)...)
		case !ad.Def.FuncLike:
			// Object-like alternative: the name expands, the argument list
			// stays in place (paper Fig. 4c).
			middle = append(middle, TokensOf(p.objectBody(ad.Def, *st.name))...)
			middle = append(middle, TokensOf(st.toks)...)
		default:
			args, ok := p.parseArgs(st.toks, *st.name, ad.Def)
			if !ok {
				middle = append(middle, TokSeg(hideSelf(*st.name)))
				middle = append(middle, TokensOf(st.toks)...)
				break
			}
			p.stats.Invocations++
			if st.name.Expanded {
				p.stats.NestedInvocations++
			}
			middle = append(middle, p.substitute(ad.Def, args, *st.name, bc, depth)...)
		}
		branches = append(branches, Branch{Cond: bc, Segs: content(middle, bc)})
	}
	if !p.space.IsFalse(free) {
		var middle []Segment
		middle = append(middle, TokSeg(hideSelf(*st.name)))
		middle = append(middle, TokensOf(st.toks)...)
		branches = append(branches, Branch{Cond: free, Segs: content(middle, free)})
	}
	return branches
}

// parseArgs splits the collected invocation tokens "( ... )" into argument
// token lists, honoring nesting. It validates arity against def.
func (p *Preprocessor) parseArgs(toks []token.Token, name token.Token, def *MacroDef) ([][]token.Token, bool) {
	if len(toks) < 2 || !toks[0].Is("(") || !toks[len(toks)-1].Is(")") {
		return nil, false
	}
	inner := toks[1 : len(toks)-1]
	var args [][]token.Token
	var cur []token.Token
	depth := 0
	for _, t := range inner {
		switch {
		case t.Is("("):
			depth++
		case t.Is(")"):
			depth--
		case t.Is(",") && depth == 0:
			args = append(args, cur)
			cur = nil
			continue
		}
		cur = append(cur, t)
	}
	args = append(args, cur)
	// f() is zero arguments for a zero-parameter macro, one empty argument
	// otherwise.
	if len(args) == 1 && len(args[0]) == 0 && len(def.Params) == 0 {
		args = nil
	}
	switch {
	case len(args) == len(def.Params):
	case def.Variadic && len(args) > len(def.Params):
		// Fold extras into the last (variadic) parameter, commas restored.
		n := len(def.Params)
		joined := args[n-1]
		for _, extra := range args[n:] {
			joined = append(joined, commaToken(name))
			joined = append(joined, extra...)
		}
		args = append(args[:n-1], joined)
	case def.Variadic && len(args) == len(def.Params)-1:
		args = append(args, nil) // empty variadic tail
	default:
		p.errorf(name, "macro %s expects %d arguments, got %d", def.Name, len(def.Params), len(args))
		return nil, false
	}
	return args, true
}

func commaToken(at token.Token) token.Token {
	return token.Token{Kind: token.Punct, Text: ",", File: at.File, Line: at.Line, Col: at.Col}
}

// substitute performs parameter substitution, stringification, and token
// pasting for a function-like macro, returning segments (conditionals can
// appear when argument expansion introduced them; pasting across them hoists
// first, paper Fig. 5).
func (p *Preprocessor) substitute(def *MacroDef, args [][]token.Token, use token.Token, c cond.Cond, depth int) []Segment {
	paramIndex := make(map[string]int, len(def.Params))
	for i, name := range def.Params {
		paramIndex[name] = i
	}
	expandedArgs := make([][]Segment, len(args))
	argExpanded := func(i int) []Segment {
		if expandedArgs[i] == nil {
			ex := p.expandSegments(TokensOf(args[i]), c, depth+1)
			if ex == nil {
				ex = []Segment{}
			}
			expandedArgs[i] = ex
		}
		return expandedArgs[i]
	}

	hide := use.Hide.With(def.Name)
	instantiate := func(bt token.Token) token.Token {
		nt := bt
		nt.File, nt.Line, nt.Col = use.File, use.Line, use.Col
		nt.Hide = hide
		nt.Expanded = true
		return nt
	}

	var out []Segment
	hasPaste := false
	body := def.Body
	for i := 0; i < len(body); i++ {
		bt := body[i]
		// Stringification: # param
		if bt.Is("#") && i+1 < len(body) {
			if ai, ok := paramIndex[body[i+1].Text]; ok && body[i+1].Kind == token.Identifier {
				p.stats.Stringifications++
				out = append(out, TokSeg(instantiate(stringify(args[ai], use))))
				i++
				continue
			}
		}
		if bt.Is("##") {
			hasPaste = true
			out = append(out, TokSeg(instantiate(bt)))
			continue
		}
		if ai, ok := paramIndex[bt.Text]; ok && bt.Kind == token.Identifier {
			// Adjacent to ##: raw argument tokens; otherwise expanded.
			rawLeft := i > 0 && body[i-1].Is("##")
			rawRight := i+1 < len(body) && body[i+1].Is("##")
			if rawLeft || rawRight {
				for _, at := range args[ai] {
					nt := at
					nt.Hide = nt.Hide.Union(use.Hide)
					out = append(out, TokSeg(nt))
				}
			} else {
				for _, seg := range argExpanded(ai) {
					out = append(out, reconditionSeg(seg, use.Hide))
				}
			}
			continue
		}
		out = append(out, TokSeg(instantiate(bt)))
	}
	if !hasPaste {
		return out
	}
	p.stats.TokenPastings++
	// Token pasting. If conditionals crept in (via expanded arguments),
	// hoist them out first so pasting sees only ordinary tokens.
	if containsConditional(out) {
		alts, ok := p.hoistGuard(c, out)
		if !ok {
			p.stats.HoistOverflows++
			return out
		}
		p.stats.HoistedPastings++
		cnd := &Conditional{}
		for _, alt := range alts {
			cnd.Branches = append(cnd.Branches, Branch{Cond: alt.Cond, Segs: TokensOf(p.pasteTokens(segTokens(alt.Toks)))})
		}
		return []Segment{CondSeg(cnd)}
	}
	toks := make([]token.Token, 0, len(out))
	for _, sg := range out {
		toks = append(toks, *sg.Tok)
	}
	return TokensOf(p.pasteTokens(toks))
}

// reconditionSeg unions extra hide-set names onto every token of a segment
// tree (arguments keep their own hides plus the invocation's).
func reconditionSeg(s Segment, hide *token.HideSet) Segment {
	if s.IsToken() {
		nt := *s.Tok
		nt.Hide = nt.Hide.Union(hide)
		return TokSeg(nt)
	}
	nc := &Conditional{}
	for _, br := range s.Cond.Branches {
		nb := Branch{Cond: br.Cond}
		for _, sub := range br.Segs {
			nb.Segs = append(nb.Segs, reconditionSeg(sub, hide))
		}
		nc.Branches = append(nc.Branches, nb)
	}
	return CondSeg(nc)
}

func containsConditional(segs []Segment) bool {
	for _, s := range segs {
		if s.Cond != nil {
			return true
		}
	}
	return false
}

func segTokens(toks []token.Token) []token.Token { return toks }

// pasteTokens applies the ## operator over a plain token list. An operand
// that an empty macro argument erased behaves as a placemarker (C99
// 6.10.3.3): the paste degenerates to the surviving operand.
func (p *Preprocessor) pasteTokens(toks []token.Token) []token.Token {
	var out []token.Token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if !t.Is("##") {
			out = append(out, t)
			continue
		}
		if len(out) == 0 || i+1 >= len(toks) {
			// Missing operand: an empty argument substituted there; the
			// paste reduces to whatever side survives.
			continue
		}
		left := out[len(out)-1]
		right := toks[i+1]
		i++
		out[len(out)-1] = p.pasteTwo(left, right)
	}
	return out
}

// pasteTwo concatenates two tokens' texts and relexes the result; when the
// concatenation does not form a single token, the tokens are emitted
// unjoined (cpp makes this undefined; we are permissive).
func (p *Preprocessor) pasteTwo(left, right token.Token) token.Token {
	text := left.Text + right.Text
	relexed, err := lexer.Lex(left.File, []byte(text))
	relexed = lexer.StripEOF(relexed)
	nt := left
	nt.Hide = left.Hide.Union(right.Hide)
	if err == nil && len(relexed) == 1 {
		nt.Kind = relexed[0].Kind
		nt.Text = text
		return nt
	}
	p.errorf(left, "pasting %q and %q does not form a valid token", left.Text, right.Text)
	nt.Text = text
	nt.Kind = token.Other
	return nt
}

// stringify converts raw argument tokens to a string literal token
// (the # operator).
func stringify(arg []token.Token, use token.Token) token.Token {
	var b strings.Builder
	b.WriteByte('"')
	for i, t := range arg {
		if i > 0 && t.HasSpace {
			b.WriteByte(' ')
		}
		// Escape backslashes and quotes occurring inside string and char
		// literals, per C99 6.10.3.2.
		if t.Kind == token.String || t.Kind == token.Char {
			for _, r := range t.Text {
				if r == '\\' || r == '"' {
					b.WriteByte('\\')
				}
				b.WriteRune(r)
			}
			continue
		}
		b.WriteString(t.Text)
	}
	b.WriteByte('"')
	return token.Token{
		Kind: token.String, Text: b.String(),
		File: use.File, Line: use.Line, Col: use.Col,
	}
}
