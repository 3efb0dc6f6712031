package ast_test

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fmlr"
	"repro/internal/preprocessor"
	"repro/internal/token"
)

// mapCounts is the visited-set walk Counts replaced, kept as the oracle.
func mapCounts(n *ast.Node) (nodes, choices int) {
	seen := make(map[*ast.Node]struct{})
	var walk func(*ast.Node)
	walk = func(m *ast.Node) {
		if m == nil {
			return
		}
		if _, ok := seen[m]; ok {
			return
		}
		seen[m] = struct{}{}
		nodes++
		if m.Kind == ast.KindChoice {
			choices++
		}
		for _, c := range m.Children {
			walk(c)
		}
		for _, a := range m.Alts {
			walk(a.Node)
		}
	}
	walk(n)
	return nodes, choices
}

// giantAST parses corpus.GiantUnit(42, items) at the given parse workers.
func giantAST(tb testing.TB, items, workers int) *ast.Node {
	tb.Helper()
	tool := core.New(core.Config{FS: preprocessor.MapFS{"giant.c": corpus.GiantUnit(42, items)}})
	u, err := tool.Preprocess("giant.c")
	if err != nil {
		tb.Fatal(err)
	}
	opts := fmlr.OptAll
	opts.ParseWorkers = workers
	res := fmlr.New(tool.Space(), cgrammar.MustLoad(), opts).ParseUnit(u)
	if res.AST == nil || len(res.Diags) > 0 {
		tb.Fatalf("giant unit %d failed to parse: %v", items, res.Diags)
	}
	return res.AST
}

// sharedDAG builds a tree whose one subtree is shared under two choice
// alternatives, one of them behind a nested choice, and which also repeats
// a leaf inside one node's children.
func sharedDAG() *ast.Node {
	s := cond.NewSpace(cond.ModeBDD)
	a, b := s.Var("A"), s.Var("B")
	x := ast.Leaf(token.Token{Kind: token.Identifier, Text: "x"})
	shared := ast.New("Shared", x, ast.Leaf(token.Token{Kind: token.Identifier, Text: "y"}), x)
	inner := ast.NewChoice(
		ast.Choice{Cond: b, Node: shared},
		ast.Choice{Cond: s.Not(b), Node: nil},
	)
	outer := ast.NewChoice(
		ast.Choice{Cond: a, Node: shared},
		ast.Choice{Cond: s.Not(a), Node: inner},
	)
	return ast.List("Unit", outer, ast.New("Tail", shared, inner))
}

// TestCountsMatchesMapWalk holds the stamp-based Counts to the map walk on
// a hand-built DAG and on giant-unit ASTs (sequential and region-parallel,
// whose regions are spliced into one tree), repeatedly on the same tree:
// each call must start from a fresh stamp.
func TestCountsMatchesMapWalk(t *testing.T) {
	trees := map[string]*ast.Node{"dag": sharedDAG()}
	for _, items := range []int{450, 3600} {
		for _, workers := range []int{1, 4} {
			trees[fmt.Sprintf("i%d/workers=%d", items, workers)] = giantAST(t, items, workers)
		}
	}
	for name, root := range trees {
		wantN, wantC := mapCounts(root)
		for i := 0; i < 3; i++ {
			n, c := root.Counts()
			if n != wantN || c != wantC {
				t.Errorf("%s call %d: Counts = %d nodes, %d choices; map walk %d, %d", name, i, n, c, wantN, wantC)
			}
			if got := root.Count(); got != wantN {
				t.Errorf("%s call %d: Count = %d, want %d", name, i, got, wantN)
			}
			if got := root.CountChoices(); got != wantC {
				t.Errorf("%s call %d: CountChoices = %d, want %d", name, i, got, wantC)
			}
		}
	}
	// The DAG's shape, spelled out: Unit, outer, inner, Shared, x, y, Tail.
	if n, c := trees["dag"].Counts(); n != 7 || c != 2 {
		t.Errorf("dag: Counts = %d, %d; want 7 nodes, 2 choices", n, c)
	}
}

// TestNodeSize pins the node at 80 bytes: Counts' stamp lives in the
// padding after Kind, so it costs the 145k-node giant AST no memory.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(ast.Node{}); got != 80 {
		t.Errorf("unsafe.Sizeof(ast.Node{}) = %d, want 80", got)
	}
}

// TestCountsAllocRatchet keeps Counts allocation-free in effect: counting
// the i3600 AST may make at most 2 allocations.
func TestCountsAllocRatchet(t *testing.T) {
	root := giantAST(t, 3600, 1)
	nodes := 0
	allocs := testing.AllocsPerRun(3, func() { nodes, _ = root.Counts() })
	t.Logf("%d nodes, %.0f allocations", nodes, allocs)
	if allocs > 2 {
		t.Fatalf("Counts over %d nodes made %.0f allocations; the ratchet allows 2", nodes, allocs)
	}
}
