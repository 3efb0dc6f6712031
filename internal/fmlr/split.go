package fmlr

import (
	"repro/internal/cond"
	"repro/internal/preprocessor"
	"repro/internal/token"
)

// This file is the region splitter behind the region-parallel parse
// (parallel.go): a lexical pass over the unit's top-level chunks that finds
// cut points where the unit can be sliced into independently
// parseable regions, and prescans the typedef declarations so each region's
// symbol table can be seeded with the names in scope at its start.
//
// Both jobs are conservative approximations backed by hard checks
// elsewhere: a missed cut merely costs parallelism, and a wrong typedef
// seed is caught by the coordinator's post-parse seed validation, which
// falls back to the sequential engine. The splitter's own invariants — a
// cut only after a top-level ';' or '}' with braces, parens, and brackets
// all balanced, and only when the following region completes a declaration
// before its first conditional — are what make the region parses
// structurally identical to the sequential parse (the fuzz target
// FuzzBlockSplit checks them directly).

// region is one slice of the unit's top-level chunks plus the typedef
// conditions lexically in scope at its start (nil for the first region).
type region struct {
	chunks []preprocessor.Chunk
	seed   map[string]cond.Cond
}

// minRegionTokens is the smallest region worth a goroutine; below it the
// per-region EOF bookkeeping and seam validation dominate the parse.
const minRegionTokens = 128

// A top-level position is one token of a run chunk or one whole
// conditional chunk, numbered in document order; chunkPos addresses one in
// the chunk list (off is 0 for a conditional).
type chunkPos struct{ ci, off int }

// cutPoint marks a legal region boundary after top-level position after.
type cutPoint struct {
	after  int      // cut after this top-level position
	weight int      // tokens up to and including after, counting all conditional branches
	next   chunkPos // the position the next region starts at
}

// typedefEvent is one prescanned file-scope typedef name, in document order.
type typedefEvent struct {
	pos  int // top-level position of the declaration's end
	name string
	c    cond.Cond // presence condition of the declaration
}

// typedefScan is the lexical typedef recognizer: a small state machine that
// walks tokens at file scope and extracts the declared names of complete
// typedef declarations. It deliberately recognizes only the common shapes
// (plain declarators, comma lists, arrays, and (*name) function pointers);
// anything else is simply not seeded and, if the name matters, the seam
// validation catches the omission.
type typedefScan struct {
	brace, paren, bracket int
	active                bool     // inside "typedef ... ;" at file scope
	pend                  string   // identifier awaiting a declarator-ending token
	star                  bool     // previous token was "*"
	names                 []string // candidates of the open declaration
}

// balanced reports whether every bracket kind is closed.
func (m *typedefScan) balanced() bool {
	return m.brace == 0 && m.paren == 0 && m.bracket == 0
}

// tok advances the machine by one token, returning the completed
// declaration's names (nil normally) when the token closes a typedef.
func (m *typedefScan) tok(t *token.Token) (done []string) {
	if t.Kind == token.Punct {
		switch t.Text {
		case "{":
			m.brace++
		case "}":
			m.brace--
		case "(":
			m.paren++
		case ")":
			m.paren--
		case "[":
			m.bracket++
		case "]":
			m.bracket--
		}
	}
	if !m.active {
		if m.balanced() && t.IsIdent("typedef") {
			m.active = true
			m.pend = ""
			m.star = false
			m.names = nil
		}
		return nil
	}
	// A pending identifier is a declared name when a declarator-ending
	// token follows it. "(" is deliberately not an ending token: in
	// "typedef u32 (*fn)(void)" the identifier before "(" is the *type*,
	// and misreading it would corrupt an otherwise-correct seed.
	if t.Kind == token.Punct && (t.Text == ";" || t.Text == "," || t.Text == "[") && m.pend != "" {
		m.names = append(m.names, m.pend)
	}
	if m.brace == 0 && m.bracket == 0 && t.Kind == token.Identifier {
		switch {
		case m.paren == 0:
			m.pend = t.Text
		case m.paren == 1 && m.star:
			// Function-pointer declarator: typedef int (*name)(...).
			m.names = append(m.names, t.Text)
			m.pend = ""
		default:
			m.pend = ""
		}
	} else {
		m.pend = ""
	}
	m.star = t.Is("*")
	if m.balanced() && t.Is(";") {
		m.active = false
		return m.names
	}
	return nil
}

// depthDelta is the brace/paren/bracket displacement of a segment run.
type depthDelta struct{ brace, paren, bracket int }

// scanBranch walks one conditional branch's segments with a copy of the
// enclosing typedef machine, collecting typedef events under path and
// returning the branch's depth displacement. ok is false when the branch is
// unanalyzable: a typedef crossing its boundary, or a nested conditional
// whose branches displace depth unequally.
func scanBranch(space *cond.Space, segs []preprocessor.Segment, m typedefScan, path cond.Cond, topPos int, events *[]typedefEvent) (depthDelta, bool) {
	base := depthDelta{m.brace, m.paren, m.bracket}
	for _, sg := range segs {
		if sg.IsToken() {
			for _, n := range m.tok(sg.Tok) {
				*events = append(*events, typedefEvent{pos: topPos, name: n, c: path})
			}
			continue
		}
		d, ok := scanCond(space, sg.Cond, m, path, topPos, events)
		if !ok {
			return depthDelta{}, false
		}
		m.brace += d.brace
		m.paren += d.paren
		m.bracket += d.bracket
	}
	if m.active {
		return depthDelta{}, false
	}
	return depthDelta{m.brace - base.brace, m.paren - base.paren, m.bracket - base.bracket}, true
}

// scanCond analyzes one conditional: every reachable branch must displace
// depth identically, and by zero when the branches do not cover every
// configuration (the implicit else contributes nothing).
func scanCond(space *cond.Space, cnd *preprocessor.Conditional, m typedefScan, path cond.Cond, topPos int, events *[]typedefEvent) (depthDelta, bool) {
	if m.active {
		// A typedef declaration straddling a conditional is beyond the
		// lexical prescan.
		return depthDelta{}, false
	}
	var delta depthDelta
	first := true
	covered := space.False()
	for _, br := range cnd.Branches {
		covered = space.Or(covered, br.Cond)
		bp := space.And(path, br.Cond)
		if space.IsFalse(bp) {
			continue
		}
		d, ok := scanBranch(space, br.Segs, m, bp, topPos, events)
		if !ok {
			return depthDelta{}, false
		}
		if first {
			delta = d
			first = false
		} else if d != delta {
			return depthDelta{}, false
		}
	}
	if !space.IsFalse(space.AndNot(path, covered)) && delta != (depthDelta{}) {
		// The implicit else branch is reachable and displaces nothing, so
		// the explicit branches must not either.
		return depthDelta{}, false
	}
	return delta, true
}

// splitRegions slices the unit into up to 4*want token-balanced regions.
// Over-decomposing relative to the worker count evens out the work-stealing
// schedule: region parse times vary with conditional density. On the giant
// benchmark unit factors 2 and 4 measured equal and 1 slightly slower. ok
// is false when the unit yields fewer than two regions worth parsing
// concurrently.
func splitRegions(space *cond.Space, chunks []preprocessor.Chunk, want int) ([]region, bool) {
	total := preprocessor.CountChunkTokens(chunks)
	if want < 2 || total < 2*minRegionTokens {
		return nil, false
	}
	targetRegions := 4 * want
	if max := total / minRegionTokens; targetRegions > max {
		targetRegions = max
	}
	if targetRegions < 2 {
		return nil, false
	}

	// One pass: track depth, run the typedef machine, and collect candidate
	// cuts, conditional positions and typedef events until the walk poisons
	// (an unanalyzable conditional stops further cutting but does not fail
	// the unit — the remainder simply becomes part of the final region).
	var (
		m        typedefScan
		cuts     []cutPoint
		conds    []int // positions of the conditionals walked
		events   []typedefEvent
		weight   int
		prevText string
		funcBody bool
	)
	pos := -1
	for ci, c := range chunks {
		if c.Cond != nil {
			// A conditional between ")" and "{" hides the function-body
			// signal; resetting the lookbehind merely forfeits that cut.
			pos++
			prevText = ""
			conds = append(conds, pos)
			for _, b := range c.Cond.Branches {
				weight += preprocessor.CountTokens(b.Segs)
			}
			d, ok := scanCond(space, c.Cond, m, space.True(), pos, &events)
			if !ok {
				break
			}
			m.brace += d.brace
			m.paren += d.paren
			m.bracket += d.bracket
			continue
		}
		for off := range c.Run {
			pos++
			tk := &c.Run[off]
			// A top-level "{" opens a function body exactly when it follows
			// ")" (parameter list or trailing attribute); otherwise it is an
			// initializer or a struct/union/enum body, whose closing "}" sits
			// mid-declaration and must not become a cut.
			if tk.Is("{") && m.balanced() {
				funcBody = prevText == ")"
			}
			weight++
			for _, n := range m.tok(tk) {
				events = append(events, typedefEvent{pos: pos, name: n, c: space.True()})
			}
			if !m.active && m.balanced() && (tk.Is(";") || (tk.Is("}") && funcBody)) {
				next := chunkPos{ci, off + 1}
				if off+1 == len(c.Run) {
					next = chunkPos{ci + 1, 0}
				}
				cuts = append(cuts, cutPoint{after: pos, weight: weight, next: next})
			}
			prevText = tk.Text
		}
	}
	// A cut after the last position would leave an empty final region.
	if n := len(cuts); n > 0 && cuts[n-1].next.ci == len(chunks) {
		cuts = cuts[:n-1]
	}
	if len(cuts) == 0 {
		return nil, false
	}

	// A cut is a legal region start only when the next region completes a
	// declaration before its first top-level conditional; otherwise the
	// region's first branch merge happens at a different stack depth than
	// in the sequential parse and the stitched choice shapes diverge.
	valid := make([]cutPoint, 0, len(cuts))
	nc := 0 // first conditional after the cut
	for k, c := range cuts {
		for nc < len(conds) && conds[nc] <= c.after {
			nc++
		}
		if nc == len(conds) || (k+1 < len(cuts) && cuts[k+1].after < conds[nc]) {
			valid = append(valid, c)
		}
	}
	if len(valid) == 0 {
		return nil, false
	}

	// Token-balanced selection: the cut nearest each multiple of
	// total/targetRegions, keeping regions at least half the minimum size.
	var chosen []cutPoint
	vi := 0
	lastWeight := 0
	for k := 1; k < targetRegions; k++ {
		target := total * k / targetRegions
		for vi < len(valid) && valid[vi].weight < target {
			vi++
		}
		var best cutPoint
		switch {
		case vi == 0:
			best = valid[0]
		case vi == len(valid):
			best = valid[len(valid)-1]
		default:
			lo, hi := valid[vi-1], valid[vi]
			if target-lo.weight <= hi.weight-target {
				best = lo
			} else {
				best = hi
			}
		}
		if len(chosen) > 0 && best.after <= chosen[len(chosen)-1].after {
			continue
		}
		if best.weight-lastWeight < minRegionTokens/2 || total-best.weight < minRegionTokens/2 {
			continue
		}
		chosen = append(chosen, best)
		lastWeight = best.weight
	}
	if len(chosen) == 0 {
		return nil, false
	}

	// Slice out the regions, attaching to each the typedef seeds accumulated
	// from every event at or before its start.
	regions := make([]region, 0, len(chosen)+1)
	seeds := map[string]cond.Cond{}
	ev := 0
	start, startPos := chunkPos{}, 0
	for _, c := range chosen {
		regions = append(regions, region{chunks: sliceChunks(chunks, start, c.next), seed: snapshotSeeds(seeds, startPos)})
		for ev < len(events) && events[ev].pos <= c.after {
			e := events[ev]
			if cur, ok := seeds[e.name]; ok {
				seeds[e.name] = space.Or(cur, e.c)
			} else {
				seeds[e.name] = e.c
			}
			ev++
		}
		start, startPos = c.next, c.after+1
	}
	end := chunkPos{len(chunks), 0}
	regions = append(regions, region{chunks: sliceChunks(chunks, start, end), seed: snapshotSeeds(seeds, startPos)})
	return regions, true
}

// sliceChunks returns the chunks from position from up to (excluding)
// position to, cutting the runs at either end. Chunks are immutable and the
// sub-runs share the unit's token storage, so element and AST leaf token
// pointers are the ones the sequential parse would use.
func sliceChunks(chunks []preprocessor.Chunk, from, to chunkPos) []preprocessor.Chunk {
	if from.ci == to.ci {
		return []preprocessor.Chunk{{Run: chunks[from.ci].Run[from.off:to.off]}}
	}
	out := make([]preprocessor.Chunk, 0, to.ci-from.ci+1)
	first := chunks[from.ci]
	if from.off > 0 {
		first.Run = first.Run[from.off:]
	}
	out = append(out, first)
	out = append(out, chunks[from.ci+1:to.ci]...)
	if to.off > 0 {
		out = append(out, preprocessor.Chunk{Run: chunks[to.ci].Run[:to.off]})
	}
	return out
}

// snapshotSeeds copies the cumulative seed map for one region. The first
// region (start 0) parses from the true initial state and needs none.
func snapshotSeeds(seeds map[string]cond.Cond, start int) map[string]cond.Cond {
	if start == 0 {
		return nil
	}
	snap := make(map[string]cond.Cond, len(seeds))
	for k, v := range seeds {
		snap[k] = v
	}
	return snap
}
