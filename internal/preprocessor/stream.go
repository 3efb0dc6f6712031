package preprocessor

import "repro/internal/token"

// This file is the preprocessor's output form. A unit's top level is packed
// into Chunks: dense token runs wherever the presence condition is True,
// and materialized Conditionals only where hoisting genuinely buffered
// content. The FMLR engine walks the chunk list in order and can consume a
// run's tokens in place, so True-condition tokens never pay for a Segment
// or a token-forest element.
//
// Chunks are immutable after creation and therefore freely replayable, and
// converting to the segment forest (EnsureSegments) points the segments
// into the runs without copying tokens. Cached lexed header streams
// interoperate unchanged — the header cache operates on files and segments
// below the unit's top level, and the chunk writer only packs at the root.

// Chunk is one piece of a unit's top level: exactly one of Run and Cond is
// set. A Run is a dense slice of ordinary tokens whose presence condition is
// the enclosing (True) context; a Cond is a static conditional materialized
// in segment form.
type Chunk struct {
	Run  []token.Token
	Cond *Conditional
}

// maxRunChunk caps a run chunk's length so the engine's per-chunk
// bookkeeping (budget polling, fallback materialization) stays bounded and
// a pathological macro expansion cannot buffer an entire unit in one run.
const maxRunChunk = 512

// chunkWriter packs root-level segments into chunks as the directive
// machine emits them. Tokens are copied by value into the current run (the
// run is the token's storage); conditionals flush the run and pass through
// as-is. A flushed run is never appended to again, so pointers into it stay
// valid.
type chunkWriter struct {
	chunks  []Chunk
	cur     []token.Token
	ntokens int // ordinary tokens across all chunks, branches included
}

func (w *chunkWriter) add(segs ...Segment) {
	for _, sg := range segs {
		if sg.IsToken() {
			if len(w.cur) >= maxRunChunk {
				w.flushRun()
			}
			w.cur = append(w.cur, *sg.Tok)
			w.ntokens++
			continue
		}
		w.flushRun()
		w.chunks = append(w.chunks, Chunk{Cond: sg.Cond})
		for _, b := range sg.Cond.Branches {
			w.ntokens += CountTokens(b.Segs)
		}
	}
}

func (w *chunkWriter) flushRun() {
	if len(w.cur) == 0 {
		w.cur = nil
		return
	}
	w.chunks = append(w.chunks, Chunk{Run: w.cur})
	w.cur = nil
}

// finish flushes the open run and returns the chunk list.
func (w *chunkWriter) finish() []Chunk {
	w.flushRun()
	return w.chunks
}

// segmentsOf converts chunks into the segment forest. Token segments point
// into the chunk runs (no token copies), so the result is valid as long as
// the chunks are — which is always, since chunks are immutable.
func segmentsOf(chunks []Chunk) []Segment {
	n := 0
	for _, c := range chunks {
		if c.Cond != nil {
			n++
		} else {
			n += len(c.Run)
		}
	}
	segs := make([]Segment, 0, n)
	for _, c := range chunks {
		if c.Cond != nil {
			segs = append(segs, Segment{Cond: c.Cond})
			continue
		}
		segs = appendTokenSegs(segs, c.Run)
	}
	return segs
}

// CountChunkTokens counts ordinary tokens across the chunks, conditional
// branches included (the chunk analogue of CountTokens).
func CountChunkTokens(chunks []Chunk) int {
	n := 0
	for _, c := range chunks {
		if c.Cond != nil {
			for _, b := range c.Cond.Branches {
				n += CountTokens(b.Segs)
			}
			continue
		}
		n += len(c.Run)
	}
	return n
}

// EnsureSegments returns the unit's segment forest, materializing (and
// caching) it from Chunks on first use. Consumers that genuinely need
// random access to segments (the printer, block-coverage analysis) call
// this; the parser walks the chunks.
func (u *Unit) EnsureSegments() []Segment {
	if u.segs == nil && len(u.Chunks) > 0 {
		u.segs = segmentsOf(u.Chunks)
	}
	return u.segs
}
