package repro

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/cgrammar"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fmlr"
	"repro/internal/preprocessor"
)

// TestGiantUnitSizeRatchet guards the sequential parser against superlinear
// cost in unit size. It parses corpus.GiantUnit(42, 450) and (42, 3600), an
// 8x size step, and compares per-token cost between the two. A linear parser
// reads a ratio near 1. A symbol table that deep-copies every file-scope name
// on each fork and merge (the representation before the structurally shared
// one) read 7.6 on bytes and 7.0 on time.
//
// The allocated-bytes ratio must stay at or below 3.0. Allocation is
// deterministic enough to check on every test run. The per-token time ratio
// (interleaved rounds, minima) must stay at or below 2.0; timing is too noisy
// for the default run, so that half runs only when SIZE_RATCHET=1 (CI's
// bench-smoke job).
func TestGiantUnitSizeRatchet(t *testing.T) {
	lang := cgrammar.MustLoad()
	type arm struct {
		tool   *core.Tool
		unit   *preprocessor.Unit
		tokens int
	}
	prep := func(items int) arm {
		src := corpus.GiantUnit(42, items)
		tool := core.New(core.Config{FS: preprocessor.MapFS(map[string]string{"giant.c": src})})
		u, err := tool.Preprocess("giant.c")
		if err != nil {
			t.Fatal(err)
		}
		return arm{tool: tool, unit: u}
	}
	opts := fmlr.OptAll
	opts.ParseWorkers = 1
	parse := func(a *arm) {
		res := fmlr.New(a.tool.Space(), lang, opts).ParseUnit(a.unit)
		if res.AST == nil || len(res.Diags) > 0 {
			t.Fatalf("giant unit failed to parse: %v", res.Diags)
		}
		a.tokens = res.Stats.Tokens
	}
	small, large := prep(450), prep(3600)

	bytesPerToken := func(a *arm) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parse(a)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(a.tokens)
	}
	parse(&small) // warm the grammar tables and pools
	bs, bl := bytesPerToken(&small), bytesPerToken(&large)
	ratio := bl / bs
	t.Logf("alloc bytes/token: i450 %.0f (%d tokens), i3600 %.0f (%d tokens), ratio %.2f",
		bs, small.tokens, bl, large.tokens, ratio)
	if ratio > 3.0 {
		t.Errorf("per-token allocation grows with unit size: i3600/i450 ratio %.2f exceeds the 3.0 ratchet", ratio)
	}

	if os.Getenv("SIZE_RATCHET") != "1" {
		t.Skip("set SIZE_RATCHET=1 to run the per-token time half of the ratchet")
	}
	nsPerToken := func(a *arm) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parse(a)
			}
		})
		return float64(r.NsPerOp()) / float64(a.tokens)
	}
	// Interleave the arms and keep each arm's fastest round: minima are far
	// more stable than means under CI scheduling noise.
	const rounds = 4
	minSmall, minLarge := 1e18, 1e18
	for i := 0; i < rounds; i++ {
		minSmall = min(minSmall, nsPerToken(&small))
		minLarge = min(minLarge, nsPerToken(&large))
	}
	ratio = minLarge / minSmall
	t.Logf("ns/token: i450 %.0f, i3600 %.0f, ratio %.2f", minSmall, minLarge, ratio)
	if ratio > 2.0 {
		t.Errorf("per-token parse time grows with unit size: i3600/i450 ratio %.2f exceeds the 2.0 ratchet", ratio)
	}
}
