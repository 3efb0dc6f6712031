package fmlr

import (
	"context"
	"testing"

	"repro/internal/cgrammar"
	"repro/internal/corpus"
	"repro/internal/guard"
)

// TestBudgetSubparserHighWater pins the engine's budget bookkeeping on the
// streamed and materialized paths: the budget's subparser axis ends at the
// parse's peak live subparser count, every limit below that peak trips the
// parse on that axis as soon as the count exceeds it, and a limit at the
// peak does not. Each engine reports only rises of its own high-water mark
// to the shared budget, so these are the checks that it still reports
// every rise.
func TestBudgetSubparserHighWater(t *testing.T) {
	files := map[string]string{"main.c": corpus.GiantUnit(42, 60)}
	parse := func(noStream bool, limits guard.Limits) (*Result, *guard.Budget) {
		u, s := preprocessChunked(t, files)
		b := guard.New(context.Background(), limits)
		opts := OptAll
		opts.NoStream = noStream
		opts.Budget = b
		return New(s, cgrammar.MustLoad(), opts).ParseUnit(u), b
	}
	for _, noStream := range []bool{false, true} {
		res, b := parse(noStream, guard.Limits{})
		peak := res.Stats.MaxSubparsers
		if peak < 2 || b.Tripped() {
			t.Fatalf("noStream=%v: peak %d subparsers, tripped %v; want a forking, untripped parse", noStream, peak, b.Tripped())
		}
		if got := b.Counter(guard.AxisSubparsers); got != int64(peak) {
			t.Errorf("noStream=%v: budget saw %d subparsers, parse peaked at %d", noStream, got, peak)
		}
		if _, b := parse(noStream, guard.Limits{Subparsers: int64(peak)}); b.Tripped() {
			t.Errorf("noStream=%v: limit %d (the peak) tripped: %v", noStream, peak, b.Trip())
		}
		// On this unit the live count rises one subparser at a time, so
		// every limit below the peak trips at exactly one above it.
		for lim := 1; lim < peak; lim++ {
			res, b := parse(noStream, guard.Limits{Subparsers: int64(lim)})
			if d := b.Trip(); d == nil || d.Axis != guard.AxisSubparsers || d.Value != int64(lim+1) || !res.Killed {
				t.Errorf("noStream=%v: limit %d: trip %v, killed %v; want a subparsers trip at %d", noStream, lim, d, res.Killed, lim+1)
			}
		}
	}
}
