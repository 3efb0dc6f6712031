package refactor

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/preprocessor"
	"repro/internal/printer"
	"repro/internal/token"
)

func parse(t *testing.T, src string) (*core.Result, *core.Tool) {
	t.Helper()
	tool := core.New(core.Config{FS: preprocessor.MapFS{"main.c": src}})
	res, err := tool.ParseFile("main.c")
	if err != nil {
		t.Fatal(err)
	}
	if res.AST == nil {
		t.Fatalf("parse failed: %v", res.Parse.Diags)
	}
	return res, tool
}

func TestRenamePlain(t *testing.T) {
	res, tool := parse(t, `
int counter = 0;
int bump(void) { counter = counter + 1; return counter; }
`)
	out, rep := Rename(tool.Space(), res.AST, "counter", "total")
	if rep.Occurrences != 4 {
		t.Errorf("occurrences = %d, want 4", rep.Occurrences)
	}
	if !tool.Space().IsTrue(rep.Cond) {
		t.Errorf("cond = %s", tool.Space().String(rep.Cond))
	}
	text := printer.Config(tool.Space(), out, nil)
	if strings.Contains(text, "counter") || strings.Count(text, "total") != 4 {
		t.Errorf("renamed text: %q", text)
	}
}

// TestRenameAcrossConfigurations is the headline case: the symbol is
// defined differently in both branches of a conditional and used in shared
// code; one rename must hit all of it.
func TestRenameAcrossConfigurations(t *testing.T) {
	res, tool := parse(t, `
#ifdef CONFIG_FAST
static int lookup(int k) { return k << 1; }
#else
static int lookup(int k) { return slow_find(k); }
#endif
int query(int k) { return lookup(k); }
`)
	out, rep := Rename(tool.Space(), res.AST, "lookup", "find_entry")
	if rep.Occurrences != 3 {
		t.Errorf("occurrences = %d, want 3 (two defs + one use)", rep.Occurrences)
	}
	s := tool.Space()
	for _, assign := range []map[string]bool{nil, {"(defined CONFIG_FAST)": true}} {
		text := printer.Config(s, out, assign)
		if strings.Contains(text, "lookup") {
			t.Errorf("%v: stale name in %q", assign, text)
		}
		if !strings.Contains(text, "find_entry") {
			t.Errorf("%v: new name missing in %q", assign, text)
		}
	}
}

func TestRenameOnlyInSomeConfigurations(t *testing.T) {
	res, tool := parse(t, `
#ifdef A
int helper(void) { return 1; }
#endif
int keep(void) { return 0; }
`)
	_, rep := Rename(tool.Space(), res.AST, "helper", "assist")
	s := tool.Space()
	if !s.Equal(rep.Cond, s.Var("(defined A)")) {
		t.Errorf("rename condition = %s, want (defined A)", s.String(rep.Cond))
	}
}

func TestRenameNoOccurrences(t *testing.T) {
	res, tool := parse(t, "int x;\n")
	out, rep := Rename(tool.Space(), res.AST, "missing", "gone")
	if rep.Occurrences != 0 {
		t.Errorf("occurrences = %d", rep.Occurrences)
	}
	// The tree is returned unchanged (shared).
	if out != res.AST {
		t.Error("unchanged tree was copied")
	}
}

func TestRenameRefusesKeywordsAndSkipsStrings(t *testing.T) {
	// Keywords are refused outright (they lex as identifiers, so a
	// name-based rename would otherwise rewrite them).
	res, tool := parse(t, `char *s = "v v"; int v = 1;`)
	out, rep := Rename(tool.Space(), res.AST, "int", "FOO")
	if rep.Occurrences != 0 || out != res.AST {
		t.Errorf("keyword rename not refused: %d occurrences", rep.Occurrences)
	}
	// String contents are never identifiers: renaming v must not touch the
	// literal "v v".
	out, rep = Rename(tool.Space(), res.AST, "v", "w")
	if rep.Occurrences != 1 {
		t.Errorf("occurrences = %d, want 1", rep.Occurrences)
	}
	text := printer.Config(tool.Space(), out, nil)
	if !strings.Contains(text, `"v v"`) || !strings.Contains(text, "int w = 1") {
		t.Errorf("renamed text: %q", text)
	}
}

func TestCheckCollisions(t *testing.T) {
	res, tool := parse(t, `
int alpha;
int beta;
`)
	if col := CheckCollisions(tool.Space(), res.AST, "alpha", "beta"); len(col) != 1 {
		t.Errorf("overlapping names not reported: %v", col)
	}
	if col := CheckCollisions(tool.Space(), res.AST, "alpha", "gamma"); len(col) != 0 {
		t.Errorf("fresh name reported as collision: %v", col)
	}
}

// TestCollisionOnlyInDisjointConfigurations: the collision is harmless when
// the two names never coexist.
func TestCollisionOnlyInDisjointConfigurations(t *testing.T) {
	res, tool := parse(t, `
#ifdef A
int alpha;
#else
int beta;
#endif
`)
	if col := CheckCollisions(tool.Space(), res.AST, "alpha", "beta"); len(col) != 0 {
		t.Errorf("disjoint names reported as collision: %v", col)
	}
}

func TestRenamedTreeReparses(t *testing.T) {
	res, tool := parse(t, `
#ifdef A
int widget_count;
#endif
int widgets_total(void) { return
#ifdef A
widget_count +
#endif
0; }
`)
	out, _ := Rename(tool.Space(), res.AST, "widget_count", "n_widgets")
	// Render the full variability and re-parse it: the refactored source
	// must still be a valid configuration-preserving program.
	text := printer.AST(tool.Space(), out, printer.Options{})
	cpp := strings.ReplaceAll(text, "(defined A)", "defined(A)")
	tool2 := core.New(core.Config{FS: preprocessor.MapFS{"main.c": cpp}})
	res2, err := tool2.ParseFile("main.c")
	if err != nil || res2.AST == nil {
		t.Fatalf("refactored source does not re-parse: %v\n%s", err, cpp)
	}
	for _, assign := range []map[string]bool{nil, {"(defined A)": true}} {
		t1 := printer.Config(tool.Space(), out, assign)
		t2 := printer.Config(tool2.Space(), res2.AST, assign)
		if t1 != t2 {
			t.Errorf("%v: render/reparse mismatch:\n%q\n%q", assign, t1, t2)
		}
	}
}

// TestRenameLeavesUnitTokens pins that a rename builds new leaves instead
// of writing through the old ones: parse-tree leaves point at the
// preprocessor's tokens, so a write would change the unit itself.
func TestRenameLeavesUnitTokens(t *testing.T) {
	res, tool := parse(t, `
#ifdef CONFIG_FAST
static int lookup(int k) { return k << 1; }
#else
static int lookup(int k) { return k; }
#endif
int query(int k) { return lookup(k); }
`)
	var before []token.Token
	for _, sg := range res.Unit.EnsureSegments() {
		before = append(before, segTokens(sg)...)
	}
	out, rep := Rename(tool.Space(), res.AST, "lookup", "find_entry")
	if rep.Occurrences != 3 || out == res.AST {
		t.Fatalf("rename did not apply: %d occurrences", rep.Occurrences)
	}
	var after []token.Token
	for _, sg := range res.Unit.EnsureSegments() {
		after = append(after, segTokens(sg)...)
	}
	if !reflect.DeepEqual(before, after) {
		t.Error("Rename changed the unit's preprocessed tokens")
	}
	if strings.Contains(printer.Config(tool.Space(), res.AST, nil), "find_entry") {
		t.Error("Rename changed the original AST")
	}
}

// segTokens flattens one segment's tokens, every branch of a conditional
// included.
func segTokens(sg preprocessor.Segment) []token.Token {
	if sg.IsToken() {
		return []token.Token{*sg.Tok}
	}
	var out []token.Token
	for _, b := range sg.Cond.Branches {
		for _, s := range b.Segs {
			out = append(out, segTokens(s)...)
		}
	}
	return out
}
