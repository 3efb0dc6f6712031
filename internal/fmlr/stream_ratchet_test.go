package fmlr

import (
	"os"
	"testing"

	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/corpus"
	"repro/internal/preprocessor"
)

// TestStreamSpeedRatchet is the streaming-pipeline performance ratchet:
// ParseUnit (preprocessor chunks feeding the engine's cursor fast path)
// must not regress more than 10% against the reference parse
// (reference_test.go: the whole forest built up front, queue loop only) on
// the benchmark corpus. At introduction streaming measured ~1.7x *faster*
// than the materialized pipeline it replaced, so this trips only if the
// fast path stops engaging or its bookkeeping grows pathological. The
// comparison is in-process and relative — both arms run interleaved on the
// same machine in the same state, minima compared — so it is immune to
// cross-machine baseline drift. It runs only when STREAM_RATCHET=1 (CI's
// bench-smoke job); timing assertions are too noisy for the default test
// run.
func TestStreamSpeedRatchet(t *testing.T) {
	if os.Getenv("STREAM_RATCHET") != "1" {
		t.Skip("set STREAM_RATCHET=1 to run the streaming ratchet")
	}
	c := corpus.Generate(corpus.Params{Seed: 1, CFiles: 24, GenHeaders: 16})
	lang := cgrammar.MustLoad()
	space := cond.NewSpace(cond.ModeBDD)
	pp := preprocessor.New(preprocessor.Options{Space: space, FS: c.FS, IncludePaths: []string{"include", "include/gen", "include/linux"}})
	units := make([]*preprocessor.Unit, 0, len(c.CFiles))
	for _, cf := range c.CFiles {
		u, err := pp.Preprocess(cf)
		if err != nil {
			t.Fatal(err)
		}
		// The reference arm's segments are built here, outside the timed
		// region, as the preprocessor once built them.
		u.EnsureSegments()
		units = append(units, u)
	}

	// The differential suite proves the paths byte-identical; here just pin
	// that the streaming arm actually streams, so the timing comparison
	// cannot silently become reference-vs-reference.
	probe := New(space, lang, OptAll).ParseUnit(units[0])
	if probe.Stats.TokensStreamed == 0 {
		t.Fatal("streaming arm streamed no tokens; ratchet is vacuous")
	}

	run := func(parse func(*Engine, *preprocessor.Unit) *Result) int64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, u := range units {
					if res := parse(New(space, lang, OptAll), u); res.AST == nil {
						b.Fatal("parse failed")
					}
				}
			}
		})
		return r.NsPerOp()
	}
	stream := func(e *Engine, u *preprocessor.Unit) *Result { return e.ParseUnit(u) }
	ref := func(e *Engine, u *preprocessor.Unit) *Result { return e.parseSeq(u.EnsureSegments(), u.File) }

	// Interleave the arms and keep each arm's fastest round: minima are far
	// more stable than means under CI scheduling noise.
	const rounds = 4
	minStream, minRef := int64(1<<62), int64(1<<62)
	for i := 0; i < rounds; i++ {
		if v := run(stream); v < minStream {
			minStream = v
		}
		if v := run(ref); v < minRef {
			minRef = v
		}
	}
	ratio := float64(minStream) / float64(minRef)
	t.Logf("parse ns/op: streaming %d, reference %d, ratio %.3f (%.2fx)",
		minStream, minRef, ratio, 1/ratio)
	if ratio > 1.10 {
		t.Errorf("streaming parse regressed: %d ns/op vs reference %d ns/op (ratio %.3f exceeds the 1.10 ratchet)",
			minStream, minRef, ratio)
	}
}
