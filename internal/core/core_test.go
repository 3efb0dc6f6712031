package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/cond"
	"repro/internal/fmlr"
	"repro/internal/preprocessor"
)

func TestParseFile(t *testing.T) {
	fs := preprocessor.MapFS{
		"main.c": "#include \"lib.h\"\nint main(void) { return VALUE; }\n",
		"lib.h":  "#ifndef LIB_H\n#define LIB_H\n#define VALUE 7\n#endif\n",
	}
	tool := New(Config{FS: fs})
	res, err := tool.ParseFile("main.c")
	if err != nil {
		t.Fatal(err)
	}
	if res.AST == nil {
		t.Fatalf("no AST: %v", res.Parse.Diags)
	}
	if res.Unit.Stats.Includes != 1 {
		t.Errorf("includes = %d", res.Unit.Stats.Includes)
	}
	if len(ast.Find(res.AST, "FunctionDefinition")) != 1 {
		t.Error("main not found")
	}
}

func TestParseString(t *testing.T) {
	tool := New(Config{FS: preprocessor.MapFS{}})
	res, err := tool.ParseString("snippet.c", "int x = 1;\n")
	if err != nil {
		t.Fatal(err)
	}
	if res.AST == nil {
		t.Fatal("no AST")
	}
}

func TestDefines(t *testing.T) {
	fs := preprocessor.MapFS{"main.c": "#ifdef FEATURE\nint on;\n#else\nint off;\n#endif\n"}
	tool := New(Config{FS: fs, Defines: map[string]string{"FEATURE": "1"}, SingleConfig: true})
	res, err := tool.ParseFile("main.c")
	if err != nil {
		t.Fatal(err)
	}
	toks := res.AST.Tokens()
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.Text)
	}
	if strings.Join(texts, " ") != "int on ;" {
		t.Errorf("got %v", texts)
	}
	// The table must reset between units: a second parse sees the same
	// defines, not stale state.
	res2, err := tool.ParseFile("main.c")
	if err != nil {
		t.Fatal(err)
	}
	if res2.AST == nil {
		t.Fatal("second parse failed")
	}
}

func TestProject(t *testing.T) {
	fs := preprocessor.MapFS{"main.c": "#ifdef A\nint a;\n#else\nint b;\n#endif\n"}
	tool := New(Config{FS: fs})
	res, err := tool.ParseFile("main.c")
	if err != nil {
		t.Fatal(err)
	}
	on := tool.Project(res, map[string]bool{"(defined A)": true})
	if len(ast.Find(on, "Declaration")) != 1 {
		t.Error("projection under A")
	}
	toks := on.Tokens()
	if toks[1].Text != "a" {
		t.Errorf("projection: %v", toks)
	}
}

func TestSATMode(t *testing.T) {
	fs := preprocessor.MapFS{"main.c": "#ifdef A\nint a;\n#endif\nint always;\n"}
	parser := fmlr.OptFollowOnly
	tool := New(Config{FS: fs, CondMode: cond.ModeSAT, Parser: &parser})
	res, err := tool.ParseFile("main.c")
	if err != nil {
		t.Fatal(err)
	}
	if res.AST == nil {
		t.Fatalf("SAT-mode parse failed: %v", res.Parse.Diags)
	}
	if tool.Space().Stats.Checks == 0 {
		t.Error("SAT mode performed no satisfiability checks")
	}
}

func TestParserOptionOverride(t *testing.T) {
	opts := fmlr.OptMAPR
	opts.KillSwitch = 8
	fs := preprocessor.MapFS{"main.c": strings.Repeat("#ifdef A\nint x;\n#endif\n", 1)}
	tool := New(Config{FS: fs, Parser: &opts})
	res, err := tool.ParseFile("main.c")
	if err != nil {
		t.Fatal(err)
	}
	if res.AST == nil && !res.Parse.Killed {
		t.Error("MAPR parse neither succeeded nor was killed")
	}
}

// TestExtensionMarkerIsInvisible: gcc's __extension__ never reaches the
// parser, so glibc-style declarations behind it parse clean, and alike
// whether tokens stream through the cursor or are materialized into the
// forest (the conditional forces both), sequentially or in parallel regions
// (the unit is long enough to split).
func TestExtensionMarkerIsInvisible(t *testing.T) {
	var b strings.Builder
	b.WriteString(`__extension__ typedef unsigned long long u64;
u64 v;
struct s { __extension__ union { int a; long b; }; };
#ifdef CONFIG_A
__extension__ typedef long long s64;
#else
__extension__ typedef long s64;
#endif
`)
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&b, "s64 w%d = __extension__ %d;\nint f%d(void) { return __extension__ (int) v + w%d; }\n", i, i, i, i)
	}
	b.WriteString("__extension__\n")
	var want string
	for _, cfg := range []Config{{}, {ParseWorkers: 4}} {
		res, err := New(cfg).ParseString("ext.c", b.String())
		if err != nil {
			t.Fatal(err)
		}
		if res.AST == nil || len(res.Parse.Diags) > 0 {
			t.Fatalf("%+v: parse failed: %v", cfg, res.Parse.Diags)
		}
		if n := res.Parse.Stats.Tokens; n != res.Unit.Stats.Tokens {
			t.Errorf("%+v: parser counted %d tokens, preprocessor %d", cfg, n, res.Unit.Stats.Tokens)
		}
		got := res.AST.String()
		if strings.Contains(got, "__extension__") {
			t.Errorf("%+v: __extension__ reached the AST:\n%s", cfg, got)
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("%+v: AST differs from the streamed parse:\n%s\nwant:\n%s", cfg, got, want)
		}
	}
}
