package preprocessor_test

import (
	"runtime"
	"testing"

	"repro/internal/cond"
	"repro/internal/corpus"
	"repro/internal/preprocessor"
)

// giantBytesPerToken is what preprocessing of corpus.GiantUnit(42, 3600)
// allocated per token when the ratchet was set (Go 1.24, amd64; 412 before
// expandSegments presized its output, 361 before ordinary lines appended
// their segments straight into the pending list); the ratchet allows 10%
// above it.
const giantBytesPerToken = 349

// TestPreprocessAllocRatchet guards the preprocessor's per-token heap
// traffic on the giant unit. Allocation is deterministic enough to check on
// every test run.
func TestPreprocessAllocRatchet(t *testing.T) {
	fs := preprocessor.MapFS{"giant.c": corpus.GiantUnit(42, 3600)}
	run := func() (bytes uint64, tokens int) {
		p := preprocessor.New(preprocessor.Options{Space: cond.NewSpace(cond.ModeBDD), FS: fs})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		u, err := p.Preprocess("giant.c")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, u.Stats.Tokens
	}
	run() // warm package-level tables
	bytes, tokens := run()
	perToken := float64(bytes) / float64(tokens)
	t.Logf("%d tokens, %d bytes, %.0f bytes/token (ratchet %d + 10%%)", tokens, bytes, perToken, giantBytesPerToken)
	if perToken > 1.1*giantBytesPerToken {
		t.Errorf("preprocessing allocated %.0f bytes/token; the ratchet allows %.0f", perToken, 1.1*giantBytesPerToken)
	}
}
