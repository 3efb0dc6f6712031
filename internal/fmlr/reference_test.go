package fmlr

import (
	"testing"

	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/guard/faultinject"
	"repro/internal/preprocessor"
)

// This file is the reference the differential suites hold ParseUnit to: it
// builds the whole navigable forest from the unit's segments up front and
// runs only the queue loop (no chunk stream is attached, so the fast path
// never engages) — Algorithm 2 as the paper states it, with no streaming
// and no region parallelism.

// parseSeq is the reference parse: one priority queue of subparsers
// stepped in document order over the fully built forest.
func (e *Engine) parseSeq(segs []preprocessor.Segment, file string) *Result {
	budget := e.opts.Budget
	faultinject.At(faultinject.PointParse, file, budget)
	e.acquireScratch()
	defer e.releaseScratch()
	first, ntokens := buildForest(segs, file)
	e.beginParse()
	e.stats = Stats{Tokens: ntokens, TokensMaterialized: ntokens}

	p0 := e.newSub()
	p0.c = e.space.True()
	p0.el = first
	p0.stack = e.pushNode(0, -1, nil, nil)
	p0.tab = e.newRootTab()
	p0.ownTab = true
	e.insert(p0)

	tripped := e.runLoop(budget)
	return e.finishParse(budget, tripped)
}

// buildForest converts preprocessor segments into the linked forest,
// appending a synthetic EOF token. It returns the first element and the
// total token count.
func buildForest(segs []preprocessor.Segment, file string) (first *element, tokens int) {
	var fb forestBuilder
	first = fb.convert(segs, nil)
	eof := fb.newEOF(file)
	if first == nil {
		return eof, fb.tokens
	}
	last := first
	for last.next != nil {
		last = last.next
	}
	last.next = eof
	return first, fb.tokens
}

// parseRef preprocesses main.c from files and runs the reference parse.
func parseRef(t *testing.T, files map[string]string, opts Options) (*Result, *cond.Space) {
	t.Helper()
	u, s := preprocessChunked(t, files)
	return New(s, cgrammar.MustLoad(), opts).parseSeq(u.EnsureSegments(), u.File), s
}
