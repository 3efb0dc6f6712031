package lexer_test

import (
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/lexer"
	"repro/internal/token"
)

// TestLexAllocRatchet pins the fast path's zero-copy contract: token texts
// are substrings of the file's source and the token slice is sized up
// front, so lexing the giant unit costs a handful of allocations however
// many tokens it yields.
func TestLexAllocRatchet(t *testing.T) {
	src := []byte(corpus.GiantUnit(42, 3600))
	n := 0
	allocs := testing.AllocsPerRun(3, func() {
		toks, err := lexer.Lex("giant.c", src)
		if err != nil {
			t.Fatal(err)
		}
		n = len(toks)
	})
	t.Logf("%d tokens, %.0f allocations", n, allocs)
	if allocs > float64(n)/1000 {
		t.Fatalf("lexing %d tokens made %.0f allocations; the ratchet allows one per 1000 tokens", n, allocs)
	}
}

// TestLexSpeedRatchet checks that the fast path earns its keep: Lex must
// be at least 3x faster than the splice-aware slow path alone over the
// generated corpus plus the giant unit. Arms run interleaved and each keeps
// its fastest round, which is stable under scheduling noise. It runs only
// when LEX_RATCHET=1 (CI's bench-smoke job); timing assertions are too
// noisy for the default test run.
func TestLexSpeedRatchet(t *testing.T) {
	if os.Getenv("LEX_RATCHET") != "1" {
		t.Skip("set LEX_RATCHET=1 to run the lexer speed ratchet")
	}
	c := corpus.Generate(corpus.Params{Seed: 1, CFiles: 200})
	files := map[string][]byte{"giant.c": []byte(corpus.GiantUnit(42, 3600))}
	for name, body := range c.FS {
		files[name] = []byte(body)
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)

	lexAll := func(lex func(string, []byte) ([]token.Token, error)) time.Duration {
		start := time.Now()
		for _, name := range names {
			if _, err := lex(name, files[name]); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	const rounds = 7
	minFast, minSlow := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		minFast = min(minFast, lexAll(lexer.Lex))
		minSlow = min(minSlow, lexAll(lexer.LexSlow))
	}
	ratio := float64(minSlow) / float64(minFast)
	t.Logf("%d files: Lex %v, slow path %v (%.2fx)", len(names), minFast, minSlow, ratio)
	if ratio < 3 {
		t.Errorf("Lex is only %.2fx faster than the slow path (ratchet: 3x)", ratio)
	}
}
