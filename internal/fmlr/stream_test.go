package fmlr

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/corpus"
	"repro/internal/hcache"
	"repro/internal/preprocessor"
	"repro/internal/token"
)

// This file is the differential oracle for the stream-fused token pipeline:
// the materialized segment-slab parse is ground truth, and the streaming
// parse (chunk runs feeding the engine's cursor fast path) must reproduce
// it byte for byte — AST with rendered presence conditions, diagnostics,
// kill flag, and every pipeline-independent statistic — at every worker
// count and with the header cache on or off. Run under -race these tests
// double as the concurrency check for streamed region parses.

// preprocessChunked preprocesses main.c with the streaming preprocessor and
// fails the test on a hard preprocessing error.
func preprocessChunked(t *testing.T, files map[string]string) (*preprocessor.Unit, *cond.Space) {
	t.Helper()
	s := cond.NewSpace(cond.ModeBDD)
	p := preprocessor.New(preprocessor.Options{
		Space:  s,
		FS:     preprocessor.MapFS(files),
		Stream: true,
	})
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	return u, s
}

// parseChunked preprocesses with streaming on and parses through ParseUnit.
func parseChunked(t *testing.T, files map[string]string, opts Options) (*Result, *cond.Space) {
	t.Helper()
	u, s := preprocessChunked(t, files)
	eng := New(s, cgrammar.MustLoad(), opts)
	return eng.ParseUnit(u), s
}

// diagMsgs projects the space-independent part of parse diagnostics.
func diagMsgs(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Msg
	}
	return out
}

// checkStreamEquiv asserts the streaming result is byte-identical to the
// materialized ground truth, and that the streaming flow counters are
// internally consistent (the split sums to the token total).
func checkStreamEquiv(t *testing.T, label string, sa *cond.Space, want *Result, sb *cond.Space, got *Result) {
	t.Helper()
	if !sameAST(sa, want, sb, got) {
		t.Fatalf("%s: AST diverges from materialized parse", label)
	}
	if got.Killed != want.Killed {
		t.Fatalf("%s: killed diverges: %v vs %v", label, got.Killed, want.Killed)
	}
	if !reflect.DeepEqual(diagMsgs(got.Diags), diagMsgs(want.Diags)) {
		t.Fatalf("%s: diagnostics diverge:\nmat: %v\nstr: %v",
			label, diagMsgs(want.Diags), diagMsgs(got.Diags))
	}
	if gs, ws := normStats(got.Stats), normStats(want.Stats); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: stats diverge:\nmat: %+v\nstr: %+v", label, ws, gs)
	}
	if sum := got.Stats.TokensStreamed + got.Stats.TokensMaterialized; sum != got.Stats.Tokens {
		t.Fatalf("%s: flow split %d streamed + %d materialized != %d tokens",
			label, got.Stats.TokensStreamed, got.Stats.TokensMaterialized, got.Stats.Tokens)
	}
}

// TestStreamPathEngages pins that the streaming pipeline actually streams —
// chunks present, the cursor fast path consuming the bulk of the tokens on a
// run-heavy unit — so the differential tests below prove something. Tokens
// are only counted as streamed when the cursor gear shifts them straight off
// the chunk run; after a conditional episode the engine materializes the
// next chunk for the surviving subparsers, so conditional-dense units (the
// generated corpus alternates ~25-token runs with conditionals) legitimately
// stream only their boot run plus any multi-chunk stretches. The second
// subtest pins exactly that weaker property so a regression to zero still
// trips.
func TestStreamPathEngages(t *testing.T) {
	t.Run("run-heavy", func(t *testing.T) {
		// Two long unconditional stretches (several 512-token chunks each)
		// around one conditional: the cursor must stream the boot stretch,
		// fall back across the conditional, and re-engage after it.
		stretch := strings.Repeat("int pad(int a)\n{\n\treturn a + 1;\n}\n", 120)
		src := stretch + "#ifdef FEAT_A\nint mid;\n#else\nlong mid;\n#endif\n" + stretch
		files := map[string]string{"main.c": src}
		u, s := preprocessChunked(t, files)
		if u.Chunks == nil {
			t.Fatal("streaming preprocessor produced no chunks")
		}
		res := New(s, cgrammar.MustLoad(), OptAll).ParseUnit(u)
		if res.AST == nil {
			t.Fatalf("streamed parse failed: %+v", res.Diags)
		}
		if res.Stats.TokensStreamed < res.Stats.TokensMaterialized {
			t.Fatalf("fast path underused on run-heavy unit: %d streamed vs %d materialized",
				res.Stats.TokensStreamed, res.Stats.TokensMaterialized)
		}
	})
	t.Run("conditional-dense", func(t *testing.T) {
		files := map[string]string{"main.c": genUnit(1, 120)}
		u, s := preprocessChunked(t, files)
		if u.Chunks == nil {
			t.Fatal("streaming preprocessor produced no chunks")
		}
		res := New(s, cgrammar.MustLoad(), OptAll).ParseUnit(u)
		if res.AST == nil {
			t.Fatalf("streamed parse failed: %+v", res.Diags)
		}
		if res.Stats.TokensStreamed == 0 {
			t.Fatal("no tokens took the streaming fast path; coverage is vacuous")
		}
	})
}

// TestStreamDifferential is the oracle over generated units: streaming at
// workers 1 and 4 must match the materialized sequential parse byte for byte.
func TestStreamDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			files := map[string]string{"main.c": genUnit(seed, 120)}
			want, sa := parseSrc(t, files, OptAll)
			if want.AST == nil {
				t.Fatalf("materialized parse failed: %+v", want.Diags)
			}
			for _, w := range []int{1, 4} {
				opts := OptAll
				opts.ParseWorkers = w
				got, sb := parseChunked(t, files, opts)
				checkStreamEquiv(t, fmt.Sprintf("workers=%d", w), sa, want, sb, got)
			}
		})
	}
}

// TestStreamDifferentialShapes covers the shapes that stress the fast
// path's bail-outs: conditionals at the start, middle, and end of the unit
// (cursor exit and re-entry), ambiguous typedef names (classification
// bail), parse errors inside a run, and units small enough to be pure
// boot-path.
func TestStreamDifferentialShapes(t *testing.T) {
	pad := strings.Repeat("int pad(int a)\n{\n\treturn a;\n}\n", 20)
	cases := map[string]string{
		"empty":          "",
		"tiny":           "int x;\n",
		"cond-at-start":  "#ifdef A\nint a;\n#endif\n" + pad,
		"cond-at-end":    pad + "#ifdef A\nint z;\n#endif\n",
		"cond-in-middle": pad + "#ifdef A\nint m;\n#else\nlong m;\n#endif\n" + pad,
		"ambiguous-typedef": "#ifdef A\ntypedef int T;\n#else\nint T;\n#endif\n" +
			"int f(void)\n{\n\treturn sizeof(T);\n}\n" + pad,
		"conditional-typedef-use": "#ifdef A\ntypedef int ct;\n#else\ntypedef long ct;\n#endif\nct v;\n" + pad,
		"parse-error":             pad + "int bad = = 3;\n" + pad,
		"error-at-eof":            pad + "int trailing = ;\n",
		"macro-heavy":             "#define THREE(a,b,c) a + b + c\nint v = THREE(1, 2, 3);\n" + pad,
		"only-conditional":        "#ifdef A\nint a;\n#else\nint b;\n#endif\n",
	}
	for name, src := range cases {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			files := map[string]string{"main.c": src}
			want, sa := parseSrc(t, files, OptAll)
			for _, w := range []int{1, 4} {
				opts := OptAll
				opts.ParseWorkers = w
				got, sb := parseChunked(t, files, opts)
				checkStreamEquiv(t, fmt.Sprintf("workers=%d", w), sa, want, sb, got)
			}
		})
	}
}

// TestStreamCorpusDifferential runs the oracle over real corpus units —
// includes, macro tables, the works — crossing worker counts with the
// header cache on and off. Cached header replays and cold preprocessing
// must both feed the streaming parser the same chunks.
func TestStreamCorpusDifferential(t *testing.T) {
	c := corpus.Generate(corpus.Params{Seed: 1, CFiles: 6, GenHeaders: 8})
	includes := []string{"include", "include/gen", "include/linux"}
	preprocess := func(t *testing.T, cf string, stream bool, hc *hcache.Cache) (*preprocessor.Unit, *cond.Space) {
		t.Helper()
		s := cond.NewSpace(cond.ModeBDD)
		p := preprocessor.New(preprocessor.Options{
			Space:        s,
			FS:           c.FS,
			IncludePaths: includes,
			HeaderCache:  hc,
			Stream:       stream,
		})
		u, err := p.Preprocess(cf)
		if err != nil {
			t.Fatalf("%s: preprocess: %v", cf, err)
		}
		return u, s
	}
	lang := cgrammar.MustLoad()
	for _, cached := range []bool{false, true} {
		var hc *hcache.Cache
		label := "nocache"
		if cached {
			hc = hcache.New(hcache.Options{})
			label = "hcache"
		}
		t.Run(label, func(t *testing.T) {
			for _, cf := range c.CFiles {
				u, sa := preprocess(t, cf, false, hc)
				want := New(sa, lang, OptAll).Parse(u.EnsureSegments(), cf)
				for _, w := range []int{1, 4} {
					opts := OptAll
					opts.ParseWorkers = w
					su, sb := preprocess(t, cf, true, hc)
					if su.Chunks == nil {
						t.Fatalf("%s: streaming preprocess produced no chunks", cf)
					}
					got := New(sb, lang, opts).ParseUnit(su)
					checkStreamEquiv(t, fmt.Sprintf("%s workers=%d", cf, w), sa, want, sb, got)
				}
			}
		})
	}
}

// TestStreamKillSwitchOption pins the kill switch: Options.NoStream on a
// chunked unit must take the materialized path (no streamed tokens) and
// still produce the identical result.
func TestStreamKillSwitchOption(t *testing.T) {
	// genUnit(2) happens to open with a conditional, so its boot run streams
	// nothing; prepend a plain run so the "streaming streams" half of the
	// test has something to stream.
	src := strings.Repeat("int pad(int a)\n{\n\treturn a;\n}\n", 20) + genUnit(2, 120)
	files := map[string]string{"main.c": src}
	u, s := preprocessChunked(t, files)
	opts := OptAll
	opts.NoStream = true
	off := New(s, cgrammar.MustLoad(), opts).ParseUnit(u)
	if off.Stats.TokensStreamed != 0 {
		t.Fatalf("NoStream parse streamed %d tokens", off.Stats.TokensStreamed)
	}
	on := New(s, cgrammar.MustLoad(), OptAll).ParseUnit(u)
	if on.Stats.TokensStreamed == 0 {
		t.Fatal("streaming parse streamed nothing")
	}
	if !sameAST(s, off, s, on) {
		t.Fatal("NoStream and streaming parses diverge")
	}
	if !reflect.DeepEqual(normStats(off.Stats), normStats(on.Stats)) {
		t.Fatalf("stats diverge:\noff: %+v\non:  %+v", normStats(off.Stats), normStats(on.Stats))
	}
}

// FuzzStreamTokens fuzzes the pipeline equivalence on arbitrary source
// text: whatever the preprocessor emits, the streaming parse must equal the
// materialized parse — ASTs, diagnostics, kill flag, and normalized stats.
func FuzzStreamTokens(f *testing.F) {
	f.Add("int x;\n")
	f.Add("")
	f.Add(genUnit(1, 40))
	f.Add(genUnit(5, 25))
	f.Add("#ifdef A\nint a;\n#endif\nint tail;\n")
	f.Add("int head;\n#ifdef A\nint a;\n#else\nlong a;\n#endif\n")
	f.Add("#ifdef A\ntypedef int T;\n#else\nint T;\n#endif\nint f(void)\n{\n\treturn sizeof(T);\n}\n")
	f.Add("int bad = = 1;\nint fine;\n")
	f.Add("#define P(x) (x)\nint v = P(P(2));\n")
	lang := cgrammar.MustLoad()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<13 {
			return
		}
		files := map[string]string{"main.c": src}
		sa := cond.NewSpace(cond.ModeBDD)
		pa := preprocessor.New(preprocessor.Options{Space: sa, FS: preprocessor.MapFS(files)})
		ua, errA := pa.Preprocess("main.c")
		sb := cond.NewSpace(cond.ModeBDD)
		pb := preprocessor.New(preprocessor.Options{Space: sb, FS: preprocessor.MapFS(files), Stream: true})
		ub, errB := pb.Preprocess("main.c")
		if (errA != nil) != (errB != nil) {
			t.Fatalf("preprocess error diverges: %v vs %v", errA, errB)
		}
		if errA != nil {
			return
		}
		want := New(sa, lang, OptAll).Parse(ua.Segments, "main.c")
		for _, w := range []int{1, 4} {
			opts := OptAll
			opts.ParseWorkers = w
			got := New(sb, lang, opts).ParseUnit(ub)
			if !sameAST(sa, want, sb, got) {
				t.Fatalf("workers=%d: streamed AST diverges", w)
			}
			if got.Killed != want.Killed || !reflect.DeepEqual(diagMsgs(got.Diags), diagMsgs(want.Diags)) {
				t.Fatalf("workers=%d: diags/killed diverge", w)
			}
			if gs, ws := normStats(got.Stats), normStats(want.Stats); !reflect.DeepEqual(gs, ws) {
				t.Fatalf("workers=%d: stats diverge:\nmat: %+v\nstr: %+v", w, ws, gs)
			}
		}
	})
}

// TestLeafAliasesToken pins that AST leaves point at the preprocessor's
// tokens (the cursor gear's run storage or the forest element's token)
// instead of copies, on the streamed, materialized and region-parallel
// paths.
func TestLeafAliasesToken(t *testing.T) {
	files := map[string]string{"main.c": corpus.GiantUnit(42, 60)}
	owned := func(u *preprocessor.Unit) map[*token.Token]bool {
		ptrs := make(map[*token.Token]bool)
		var segs func([]preprocessor.Segment)
		segs = func(ss []preprocessor.Segment) {
			for _, sg := range ss {
				if sg.IsToken() {
					ptrs[sg.Tok] = true
					continue
				}
				for _, b := range sg.Cond.Branches {
					segs(b.Segs)
				}
			}
		}
		for _, c := range u.Chunks {
			for i := range c.Run {
				ptrs[&c.Run[i]] = true
			}
			if c.Cond != nil {
				segs([]preprocessor.Segment{{Cond: c.Cond}})
			}
		}
		return ptrs
	}
	for _, tc := range []struct {
		name     string
		noStream bool
		workers  int
	}{{"stream", false, 1}, {"materialized", true, 1}, {"parallel", false, 4}} {
		u, s := preprocessChunked(t, files)
		ptrs := owned(u)
		opts := OptAll
		opts.NoStream = tc.noStream
		opts.ParseWorkers = tc.workers
		res := New(s, cgrammar.MustLoad(), opts).ParseUnit(u)
		if res.AST == nil || len(res.Diags) > 0 {
			t.Fatalf("%s: parse failed: %v", tc.name, res.Diags)
		}
		// The AST is a DAG; visit each shared subtree once.
		leaves, seen := 0, make(map[*ast.Node]bool)
		ast.Walk(res.AST, func(n *ast.Node) bool {
			if seen[n] {
				return false
			}
			seen[n] = true
			if n.Kind == ast.KindToken {
				leaves++
				if !ptrs[n.Tok] {
					t.Errorf("%s: leaf %q at %s does not point at a preprocessed token", tc.name, n.Tok.Text, n.Tok.Pos())
				}
			}
			return true
		})
		if leaves == 0 {
			t.Errorf("%s: AST has no leaves", tc.name)
		}
	}
}
