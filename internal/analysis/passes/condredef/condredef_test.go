package condredef_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/condredef"
	"repro/internal/core"
)

func lint(t *testing.T, src string) (*analysis.Result, *core.Tool) {
	t.Helper()
	tool := core.New(core.Config{})
	res, err := tool.ParseString("main.c", src)
	if err != nil {
		t.Fatal(err)
	}
	r := analysis.Run(&analysis.Unit{
		File:  "main.c",
		Space: tool.Space(),
		AST:   res.AST,
		PP:    res.Unit,
	}, []*analysis.Analyzer{condredef.Analyzer})
	return r, tool
}

func TestFileScopeOverlappingDefinitions(t *testing.T) {
	r, tool := lint(t, `
#ifdef CONFIG_B
int x = 1;
#endif
#ifdef CONFIG_C
int x = 2;
#endif
`)
	if len(r.Diags) != 1 {
		t.Fatalf("diags: %+v", r.Diags)
	}
	d := r.Diags[0]
	if !strings.Contains(d.Msg, `"x"`) || !strings.Contains(d.Msg, "twice") {
		t.Errorf("msg: %s", d.Msg)
	}
	// The conflict holds exactly where both branches are on.
	s := tool.Space()
	want := s.And(s.Var("(defined CONFIG_B)"), s.Var("(defined CONFIG_C)"))
	if !s.Equal(d.Cond, want) {
		t.Errorf("cond = %s, want %s", s.String(d.Cond), s.String(want))
	}
	if !d.Witness["(defined CONFIG_B)"] || !d.Witness["(defined CONFIG_C)"] {
		t.Errorf("witness %v", d.Witness)
	}
}

func TestDisjointDefinitionsNotFlagged(t *testing.T) {
	r, _ := lint(t, `
#ifdef CONFIG_B
int both = 1;
#else
int both = 2;
#endif
`)
	if len(r.Diags) != 0 {
		t.Errorf("disjoint definitions flagged: %+v", r.Diags)
	}
}

func TestBlockScopeTypedefObjectClash(t *testing.T) {
	// Object first, typedef second: the reverse order is a parse error in
	// the guarded alternative ("int <typedef-name> = 0" has no declarator
	// reading), so that subparser dies before the analysis ever sees it.
	r, _ := lint(t, `
int f(void) {
    int y = 1;
#ifdef CONFIG_E
    typedef int y;
#endif
    return 0;
}
`)
	if len(r.Diags) != 1 {
		t.Fatalf("diags: %+v", r.Diags)
	}
	if !strings.Contains(r.Diags[0].Msg, "typedef and an object in the same scope") {
		t.Errorf("msg: %s", r.Diags[0].Msg)
	}
}

func TestShadowingInNestedScopeNotFlagged(t *testing.T) {
	// An inner block redeclaring an outer name is shadowing, not
	// redefinition.
	r, _ := lint(t, `
int f(void) {
    int v = 1;
    {
        int v = 2;
    }
    return 0;
}
`)
	if len(r.Diags) != 0 {
		t.Errorf("shadowing flagged: %+v", r.Diags)
	}
}

func TestSameScopeObjectRedefinition(t *testing.T) {
	r, _ := lint(t, `
int f(void) {
    int v = 1;
#ifdef CONFIG_D
    int v = 2;
#endif
    return 0;
}
`)
	if len(r.Diags) != 1 {
		t.Fatalf("diags: %+v", r.Diags)
	}
	if !strings.Contains(r.Diags[0].Msg, "redefined in the same scope") {
		t.Errorf("msg: %s", r.Diags[0].Msg)
	}
}

func TestDisjointBlockScopeNotFlagged(t *testing.T) {
	r, _ := lint(t, `
int f(void) {
#ifdef CONFIG_D
    int v = 1;
#else
    int v = 2;
#endif
    return 0;
}
`)
	if len(r.Diags) != 0 {
		t.Errorf("disjoint block-scope definitions flagged: %+v", r.Diags)
	}
}

func TestBlockScopeEnumeratorRedefinition(t *testing.T) {
	// A block-scope enumerator is an ordinary identifier of its scope: a
	// later same-scope object of the same name is a redefinition (gcc
	// rejects this unit under CONFIG_H).
	r, tool := lint(t, `
int f(void) {
    enum { EN1 };
#ifdef CONFIG_H
    int EN1;
#endif
    return 0;
}
`)
	if len(r.Diags) != 1 {
		t.Fatalf("diags: %+v", r.Diags)
	}
	d := r.Diags[0]
	if !strings.Contains(d.Msg, `"EN1" redefined in the same scope`) {
		t.Errorf("msg: %s", d.Msg)
	}
	if s := tool.Space(); !s.Equal(d.Cond, s.Var("(defined CONFIG_H)")) {
		t.Errorf("cond = %s, want (defined CONFIG_H)", s.String(d.Cond))
	}
}
