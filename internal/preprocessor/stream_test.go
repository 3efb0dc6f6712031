package preprocessor

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cond"
)

// These tests pin the invariants of the chunk layer: what the chunk writer
// is allowed to emit, that chunk form and segment form are lossless
// conversions of each other, and that streaming the root frame into the
// chunk writer as it flushes is observationally identical to the reference
// that accumulates the root's segments and packs them at the end.

// ppStream preprocesses main.c.
func ppStream(t *testing.T, files map[string]string) (*Unit, *cond.Space) {
	t.Helper()
	return ppRoot(t, files, false)
}

// ppRootSegs preprocesses main.c through the reference root frame.
func ppRootSegs(t *testing.T, files map[string]string) (*Unit, *cond.Space) {
	t.Helper()
	return ppRoot(t, files, true)
}

func ppRoot(t *testing.T, files map[string]string, rootSegs bool) (*Unit, *cond.Space) {
	t.Helper()
	s := cond.NewSpace(cond.ModeBDD)
	p := New(Options{Space: s, FS: MapFS(files), IncludePaths: []string{"include"}})
	p.rootSegs = rootSegs
	u, err := p.Preprocess("main.c")
	if err != nil {
		t.Fatalf("Preprocess(rootSegs=%v): %v", rootSegs, err)
	}
	return u, s
}

// chunksOf packs a segment forest into chunks the way the root frame does.
func chunksOf(segs []Segment) []Chunk {
	var w chunkWriter
	w.add(segs...)
	return w.finish()
}

// checkChunkInvariants asserts the structural rules every chunk list must
// obey: exactly one of Run/Cond per chunk, no empty runs, runs capped at
// maxRunChunk, and adjacent runs only where the first was a full (capped)
// chunk — otherwise the writer should have packed them together.
func checkChunkInvariants(t *testing.T, chunks []Chunk) {
	t.Helper()
	for i, c := range chunks {
		isRun, isCond := c.Run != nil, c.Cond != nil
		if isRun == isCond {
			t.Fatalf("chunk %d: exactly one of Run/Cond must be set (run=%v cond=%v)", i, isRun, isCond)
		}
		if isRun && len(c.Run) == 0 {
			t.Fatalf("chunk %d: empty run", i)
		}
		if len(c.Run) > maxRunChunk {
			t.Fatalf("chunk %d: run of %d tokens exceeds cap %d", i, len(c.Run), maxRunChunk)
		}
		if i > 0 && isRun && chunks[i-1].Run != nil && len(chunks[i-1].Run) < maxRunChunk {
			t.Fatalf("chunk %d: adjacent runs with a non-full predecessor (%d tokens)", i, len(chunks[i-1].Run))
		}
	}
}

// streamSources is the shared source set: hand-written shapes covering the
// chunk writer's edge cases plus random preprocessor-heavy programs.
func streamSources() map[string]string {
	pad := strings.Repeat("int pad(int a) { return a; }\n", 60) // > maxRunChunk tokens
	srcs := map[string]string{
		"empty":            "",
		"run-only":         pad,
		"cond-only":        "#ifdef A\nint a;\n#else\nlong a;\n#endif\n",
		"run-cond-run":     pad + "#ifdef A\nint m;\n#endif\n" + pad,
		"adjacent-conds":   "#ifdef A\nint a;\n#endif\n#ifdef B\nint b;\n#endif\n",
		"macro-expansion":  "#define TWICE(x) ((x) + (x))\nint v = TWICE(21);\n" + pad,
		"hoisted-cond":     "#define V 1\n#ifdef A\n#define W 2\n#endif\nint x = V\n#ifdef A\n+ W\n#endif\n;\n",
		"include":          "#include \"inc.h\"\nint after;\n",
		"cond-at-very-end": pad + "#ifdef A\nint z;\n#endif\n",
	}
	r := rand.New(rand.NewSource(20260807))
	for i := 0; i < 12; i++ {
		srcs["random-"+string(rune('a'+i))] = randomProgram(r, 3)
	}
	return srcs
}

func streamFiles(src string) map[string]string {
	return map[string]string{
		"main.c":        src,
		"include/inc.h": "int from_header;\n",
	}
}

// TestStreamChunkInvariants checks the writer's structural rules and that
// the chunk token count agrees with the reference root's.
func TestStreamChunkInvariants(t *testing.T) {
	for name, src := range streamSources() {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			files := streamFiles(src)
			u, _ := ppStream(t, files)
			if u.segs != nil {
				t.Fatal("preprocessing materialized segments eagerly")
			}
			checkChunkInvariants(t, u.Chunks)
			ref, _ := ppRootSegs(t, files)
			if got, want := CountChunkTokens(u.Chunks), CountTokens(ref.EnsureSegments()); got != want {
				t.Fatalf("chunk token count %d != reference segment count %d", got, want)
			}
			if u.Stats.Tokens != CountChunkTokens(u.Chunks) {
				t.Fatalf("Stats.Tokens %d != chunk token count %d", u.Stats.Tokens, CountChunkTokens(u.Chunks))
			}
		})
	}
}

// TestStreamEquivalentToClassic renders the streamed root's output and the
// reference root's — conditions, branch structure, token text — and
// requires byte equality.
func TestStreamEquivalentToClassic(t *testing.T) {
	for name, src := range streamSources() {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			files := streamFiles(src)
			su, ss := ppStream(t, files)
			ru, rs := ppRootSegs(t, files)
			got := FlattenText(ss, su.EnsureSegments())
			want := FlattenText(rs, ru.EnsureSegments())
			if got != want {
				t.Fatalf("streamed output diverges from the reference root:\nreference: %s\nstream:    %s", want, got)
			}
		})
	}
}

// TestChunkSegmentRoundTrip converts a unit's segments to chunks and back:
// the round trip must preserve every token value and every conditional
// pointer, and the packed chunks must obey the writer invariants.
func TestChunkSegmentRoundTrip(t *testing.T) {
	for name, src := range streamSources() {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			u, _, _ := pp(t, streamFiles(src))
			segs := u.EnsureSegments()
			chunks := chunksOf(segs)
			checkChunkInvariants(t, chunks)
			back := segmentsOf(chunks)
			if len(back) != len(segs) {
				t.Fatalf("round trip changed segment count: %d != %d", len(back), len(segs))
			}
			for i := range back {
				a, b := segs[i], back[i]
				if a.IsToken() != b.IsToken() {
					t.Fatalf("segment %d: kind changed in round trip", i)
				}
				if a.IsToken() {
					if *a.Tok != *b.Tok {
						t.Fatalf("segment %d: token changed: %+v != %+v", i, *a.Tok, *b.Tok)
					}
					continue
				}
				if a.Cond != b.Cond {
					t.Fatalf("segment %d: conditional pointer changed in round trip", i)
				}
			}
		})
	}
}

// TestEnsureSegmentsReplaysChunks checks that EnsureSegments replays the
// chunk list exactly — one segment per run token, pointing into the run,
// and one per conditional chunk, sharing its pointer — and caches its
// materialization.
func TestEnsureSegmentsReplaysChunks(t *testing.T) {
	su, _ := ppStream(t, streamFiles(streamSources()["run-cond-run"]))
	segs := su.EnsureSegments()
	if len(segs) == 0 {
		t.Fatal("EnsureSegments returned nothing")
	}
	i := 0
	for ci, c := range su.Chunks {
		if c.Cond != nil {
			if segs[i].Cond != c.Cond {
				t.Fatalf("chunk %d: conditional pointer differs after replay", ci)
			}
			i++
			continue
		}
		for k := range c.Run {
			if segs[i].Tok != &c.Run[k] {
				t.Fatalf("chunk %d token %d: segment does not point into the run", ci, k)
			}
			i++
		}
	}
	if i != len(segs) {
		t.Fatalf("replay produced %d segments, chunks hold %d positions", len(segs), i)
	}
	if again := su.EnsureSegments(); &again[0] != &segs[0] {
		t.Fatal("EnsureSegments did not cache its materialization")
	}
}

// TestEmptyUnitChunks pins the empty unit's representation: no chunks and
// no segments.
func TestEmptyUnitChunks(t *testing.T) {
	u, _ := ppStream(t, map[string]string{"main.c": ""})
	if len(u.Chunks) != 0 {
		t.Fatalf("empty unit: want no chunks, got %#v", u.Chunks)
	}
	if got := u.EnsureSegments(); len(got) != 0 {
		t.Fatalf("empty unit materialized %d segments", len(got))
	}
}
