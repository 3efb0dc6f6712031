package analysis_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/symtab"
	"repro/internal/token"
)

// scopeUse is one ordinary use the scope walker reported: the path
// condition that reaches it and the condition under which a declaration of
// the name is in scope there.
type scopeUse struct {
	name           string
	path, declared cond.Cond
}

// scopeUses walks root from file scope and records every non-keyword use.
func scopeUses(s *cond.Space, root *ast.Node) []scopeUse {
	var uses []scopeUse
	analysis.NewScopes(s, func(tab *symtab.Table, sg analysis.Sighting) bool {
		if sg.Kind == analysis.Use && !cgrammar.IsKeyword(sg.Tok.Text) {
			uses = append(uses, scopeUse{sg.Tok.Text, sg.Cond, tab.Declared(sg.Tok.Text)})
		}
		return true
	}).Walk(root, s.True(), false)
	return uses
}

// TestScopesRules pins each scoping rule of the shared walker with one
// snippet over one configuration variable: every use's declared condition
// on its path, rendered "name[path]=declared" in walk order (a function the
// parser splits by configuration is walked once per alternative). Where gcc
// is installed it also checks the snippet with and without the macro: gcc
// must accept a configuration exactly when every use it reaches is declared
// in it.
func TestScopesRules(t *testing.T) {
	const a = "(defined CONFIG_A)"
	cases := []struct {
		rule string
		src  string
		want []string
	}{
		{"alternatives conjoin their conditions", `
#ifdef CONFIG_A
int v;
#endif
int f(void) {
#ifdef CONFIG_A
	return v;
#else
	return 0;
#endif
}
`, []string{"v[" + a + "]=" + a}},
		{"a compound statement opens a scope", `
#ifdef CONFIG_A
int t;
#endif
int f(void) {
	{
		int t = 1;
		t++;
	}
	return t;
}
`, []string{"t[!" + a + "]=!" + a, "t[!" + a + "]=0", "t[" + a + "]=" + a, "t[" + a + "]=" + a}},
		{"a function's name encloses it and its parameters wrap the body", `
#ifdef CONFIG_A
int x;
#endif
int f(int x) { return x ? f(x - 1) : x; }
`, []string{"x[!" + a + "]=!" + a, "f[!" + a + "]=!" + a, "x[!" + a + "]=!" + a, "x[!" + a + "]=!" + a,
			"x[" + a + "]=" + a, "f[" + a + "]=" + a, "x[" + a + "]=" + a, "x[" + a + "]=" + a}},
		{"block-scope enumerators are declared", `
#ifdef CONFIG_A
int RED;
#endif
int g(void) { enum { RED = 1 }; return RED; }
`, []string{"RED[!" + a + "]=!" + a, "RED[" + a + "]=" + a}},
		{"file-scope enumerators are declared", `
#ifdef CONFIG_A
enum { GREEN };
#endif
int h(void) { return GREEN; }
`, []string{"GREEN[!" + a + "]=0", "GREEN[" + a + "]=" + a}},
		{"a declarator is in scope inside its own initializer", `
#ifdef CONFIG_A
int self;
#endif
void f(void) {
	void *self = &self;
	(void)self;
}
`, []string{"self[!" + a + "]=!" + a, "self[!" + a + "]=!" + a, "self[" + a + "]=" + a, "self[" + a + "]=" + a}},
		{"members, labels, goto targets, type names, tags and designators are not uses", `
#ifdef CONFIG_A
int m, out, s;
#endif
struct s { int m; };
int f(struct s *p) {
	struct s v = { .m = 1 };
	if (p->m)
		goto out;
	v.m = sizeof(struct s);
out:
	return v.m;
}
`, []string{"p[1]=1", "v[1]=1", "v[1]=1"}},
	}
	gcc, _ := exec.LookPath("gcc")
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			tool := core.New(core.Config{})
			res, err := tool.ParseString("scope.c", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Parse.Diags) > 0 {
				t.Fatalf("parse errors: %v", res.Parse.Diags)
			}
			s := tool.Space()
			uses := scopeUses(s, res.AST)
			var got []string
			for _, u := range uses {
				got = append(got, u.name+"["+s.String(u.path)+"]="+s.String(s.And(u.path, u.declared)))
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("uses:\n got %q\nwant %q", got, tc.want)
			}
			if gcc == "" {
				return
			}
			file := filepath.Join(t.TempDir(), "scope.c")
			if err := os.WriteFile(file, []byte(tc.src), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, on := range []bool{false, true} {
				args := []string{"-fsyntax-only", file}
				if on {
					args = append(args, "-DCONFIG_A")
				}
				out, err := exec.Command(gcc, args...).CombinedOutput()
				config := map[string]bool{a: on}
				want := true
				for _, u := range uses {
					if s.Eval(u.path, config) && !s.Eval(u.declared, config) {
						want = false
					}
				}
				if (err == nil) != want {
					t.Errorf("CONFIG_A=%v: gcc accepts = %v, scope walker predicts %v\n%s", on, err == nil, want, out)
				}
			}
		})
	}
}

// TestScopesSkipErrorRegions: an identifier inside an _Error region is
// never a use, while its sibling alternative still is.
func TestScopesSkipErrorRegions(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	va := s.Var("A")
	ident := func(text string) *ast.Node {
		return ast.Leaf(token.Token{Kind: token.Identifier, Text: text})
	}
	hidden := &ast.Node{Kind: ast.KindNode, Label: ast.ErrorLabel, Children: []*ast.Node{ident("hidden")}}
	root := ast.New("CompoundStatement",
		ast.NewChoice(
			ast.Choice{Cond: va, Node: ident("seen")},
			ast.Choice{Cond: s.Not(va), Node: hidden},
		),
		ident("after"),
	)
	var got []string
	for _, u := range scopeUses(s, root) {
		got = append(got, u.name+"["+s.String(u.path)+"]")
	}
	if want := []string{"seen[A]", "after[1]"}; !reflect.DeepEqual(got, want) {
		t.Errorf("uses %q, want %q", got, want)
	}
}
