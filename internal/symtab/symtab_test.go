package symtab

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cond"
)

func TestUnknownNameIsIdentifier(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	cl := tab.Classify("foo", s.True())
	if !s.IsFalse(cl.TypedefCond) || !s.IsTrue(cl.OtherCond) {
		t.Errorf("unknown name: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
}

func TestUnconditionalTypedef(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.DefineTypedef("size_t", s.True())
	cl := tab.Classify("size_t", s.True())
	if !s.IsTrue(cl.TypedefCond) || !s.IsFalse(cl.OtherCond) {
		t.Errorf("size_t: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
}

func TestConditionalTypedef(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	tab := New(s)
	tab.DefineTypedef("T", a)
	cl := tab.Classify("T", s.True())
	if !s.Equal(cl.TypedefCond, a) {
		t.Errorf("typedef cond = %s, want A", s.String(cl.TypedefCond))
	}
	if !s.Equal(cl.OtherCond, s.Not(a)) {
		t.Errorf("other cond = %s, want !A", s.String(cl.OtherCond))
	}
}

// TestAmbiguousName reproduces the paper's ambiguously-defined name: T is a
// typedef under A and an object under !A.
func TestAmbiguousName(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	tab := New(s)
	tab.DefineTypedef("T", a)
	tab.DefineObject("T", s.Not(a))
	cl := tab.Classify("T", s.True())
	if !s.Equal(cl.TypedefCond, a) || !s.Equal(cl.OtherCond, s.Not(a)) {
		t.Errorf("T: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
	// Restricted to A, unambiguous.
	cl = tab.Classify("T", a)
	if !s.Equal(cl.TypedefCond, a) || !s.IsFalse(cl.OtherCond) {
		t.Errorf("T under A: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
}

func TestShadowing(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.DefineTypedef("T", s.True())
	tab.EnterScope()
	tab.DefineObject("T", s.True())
	cl := tab.Classify("T", s.True())
	if !s.IsFalse(cl.TypedefCond) {
		t.Errorf("inner object should shadow: typedef=%s", s.String(cl.TypedefCond))
	}
	tab.ExitScope()
	cl = tab.Classify("T", s.True())
	if !s.IsTrue(cl.TypedefCond) {
		t.Errorf("outer typedef should reappear: %s", s.String(cl.TypedefCond))
	}
}

func TestConditionalShadowing(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	tab := New(s)
	tab.DefineTypedef("T", s.True())
	tab.EnterScope()
	tab.DefineObject("T", a) // shadowed only under A
	cl := tab.Classify("T", s.True())
	if !s.Equal(cl.TypedefCond, s.Not(a)) {
		t.Errorf("typedef cond = %s, want !A", s.String(cl.TypedefCond))
	}
}

func TestRedefinitionWithinScope(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.DefineTypedef("T", s.True())
	tab.DefineObject("T", s.True()) // later declaration shadows
	cl := tab.Classify("T", s.True())
	if !s.IsFalse(cl.TypedefCond) || !s.IsTrue(cl.OtherCond) {
		t.Errorf("T: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
}

func TestCloneIsolation(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.DefineTypedef("T", s.True())
	cl := tab.Clone()
	cl.DefineTypedef("U", s.True())
	if got := tab.Classify("U", s.True()); !s.IsFalse(got.TypedefCond) {
		t.Error("clone leaked into original")
	}
	if got := cl.Classify("T", s.True()); !s.IsTrue(got.TypedefCond) {
		t.Error("clone lost original entries")
	}
}

func TestMayMergeDepth(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	t1, t2 := New(s), New(s)
	if !t1.MayMerge(t2) {
		t.Error("same depth should merge")
	}
	t2.EnterScope()
	if t1.MayMerge(t2) {
		t.Error("different depths must not merge")
	}
}

func TestMerge(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	t1, t2 := New(s), New(s)
	t1.DefineTypedef("T", a)
	t2.DefineObject("T", s.Not(a))
	t2.DefineTypedef("U", s.Not(a))
	m := t1.Merge(t2)
	cl := m.Classify("T", s.True())
	if !s.Equal(cl.TypedefCond, a) || !s.Equal(cl.OtherCond, s.Not(a)) {
		t.Errorf("merged T: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
	cl = m.Classify("U", s.True())
	if !s.Equal(cl.TypedefCond, s.Not(a)) {
		t.Errorf("merged U: typedef=%s", s.String(cl.TypedefCond))
	}
}

func TestExitFileScopeIgnored(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.ExitScope() // must not pop the file scope
	if tab.Depth() != 1 {
		t.Errorf("depth = %d", tab.Depth())
	}
}

func TestMergeDifferentDepthsClones(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := New(s)
	b := New(s)
	b.EnterScope()
	// Merge only aligns the shared depth prefix; deeper scopes of the
	// other table are ignored (MayMerge should have gated this anyway).
	m := a.Merge(b)
	if m.Depth() != 1 {
		t.Errorf("depth = %d", m.Depth())
	}
}

func TestNamesCount(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.DefineTypedef("A", s.True())
	tab.DefineObject("B", s.True())
	if tab.Names() != 2 {
		t.Errorf("Names = %d", tab.Names())
	}
}

// refTable is the deep-copy symbol table that the structurally shared one
// replaced: one flat map per scope, copied whole on Clone and walked whole
// on Merge. It is kept as the differential oracle for the shared
// representation.
type refTable struct {
	space  *cond.Space
	scopes []map[string]entry
	trk    *tracker
}

func newRef(s *cond.Space) *refTable {
	return &refTable{space: s, scopes: []map[string]entry{{}}}
}

func newRefSeeded(s *cond.Space, seed map[string]cond.Cond) *refTable {
	t := newRef(s)
	for name, c := range seed {
		t.scopes[0][name] = entry{typedefCond: c, objectCond: s.False()}
	}
	return t
}

func (t *refTable) Track() {
	if t.trk == nil {
		t.trk = &tracker{touched: map[string]bool{}}
	}
}

func (t *refTable) Clone() *refTable {
	nt := &refTable{space: t.space, scopes: make([]map[string]entry, len(t.scopes)), trk: t.trk}
	for i, sc := range t.scopes {
		nt.scopes[i] = make(map[string]entry, len(sc))
		for k, v := range sc {
			nt.scopes[i][k] = v
		}
	}
	return nt
}

func (t *refTable) EnterScope() { t.scopes = append(t.scopes, map[string]entry{}) }

func (t *refTable) ExitScope() {
	if len(t.scopes) > 1 {
		t.scopes = t.scopes[:len(t.scopes)-1]
	}
}

func (t *refTable) define(name string, c cond.Cond, typedef bool) {
	if t.trk != nil && len(t.scopes) == 1 {
		t.trk.defs = append(t.trk.defs, FileDef{Name: name, Cond: c, Typedef: typedef})
	}
	sc := t.scopes[len(t.scopes)-1]
	e := sc[name]
	set, other := &e.objectCond, &e.typedefCond
	if typedef {
		set, other = other, set
	}
	if *set == (cond.Cond{}) {
		*set = c
	} else {
		*set = t.space.Or(*set, c)
	}
	if *other == (cond.Cond{}) {
		*other = t.space.False()
	} else {
		*other = t.space.AndNot(*other, c)
	}
	sc[name] = e
}

func (t *refTable) Classify(name string, c cond.Cond) Classification {
	if t.trk != nil {
		t.trk.touched[name] = true
	}
	s := t.space
	remaining, td := c, s.False()
	for i := len(t.scopes) - 1; i >= 0 && !s.IsFalse(remaining); i-- {
		e, ok := t.scopes[i][name]
		if !ok {
			continue
		}
		td = s.Or(td, s.And(remaining, e.typedefCond))
		remaining = s.AndNot(remaining, s.Or(e.typedefCond, e.objectCond))
	}
	return Classification{TypedefCond: td, OtherCond: s.AndNot(c, td)}
}

func (t *refTable) Declared(name string) cond.Cond {
	var c cond.Cond
	for i := len(t.scopes) - 1; i >= 0; i-- {
		if e, ok := t.scopes[i][name]; ok {
			c = orDefined(t.space, c, orDefined(t.space, e.typedefCond, e.objectCond))
		}
	}
	if c == (cond.Cond{}) {
		return t.space.False()
	}
	return c
}

func (t *refTable) CurrentScope(name string) (cond.Cond, cond.Cond, bool) {
	e, ok := t.scopes[len(t.scopes)-1][name]
	return e.typedefCond, e.objectCond, ok
}

func (t *refTable) Merge(o *refTable) *refTable {
	merged := t.Clone()
	for i := range merged.scopes {
		if i >= len(o.scopes) {
			break
		}
		for name, oe := range o.scopes[i] {
			e, ok := merged.scopes[i][name]
			if !ok {
				merged.scopes[i][name] = oe
				continue
			}
			e.typedefCond = orDefined(t.space, e.typedefCond, oe.typedefCond)
			e.objectCond = orDefined(t.space, e.objectCond, oe.objectCond)
			merged.scopes[i][name] = e
		}
	}
	return merged
}

// twin drives a Table and its reference through the same operations.
type twin struct {
	tab *Table
	ref *refTable
}

func (w twin) define(name string, c cond.Cond, typedef bool) {
	if typedef {
		w.tab.DefineTypedef(name, c)
	} else {
		w.tab.DefineObject(name, c)
	}
	w.ref.define(name, c, typedef)
}

func (w twin) clone() twin          { return twin{w.tab.Clone(), w.ref.Clone()} }
func (w twin) merge(o twin) twin    { return twin{w.tab.Merge(o.tab), w.ref.Merge(o.ref)} }
func (w twin) enter()               { w.tab.EnterScope(); w.ref.EnterScope() }
func (w twin) exit()                { w.tab.ExitScope(); w.ref.ExitScope() }
func (w twin) track()               { w.tab.Track(); w.ref.Track() }
func (w twin) mayMerge(o twin) bool { return w.tab.MayMerge(o.tab) }

// check compares every observable of the table against the reference for
// the given names, classifying each under use condition use.
func (w twin) check(t *testing.T, s *cond.Space, names []string, use cond.Cond, ctx string) {
	t.Helper()
	if w.tab.Depth() != len(w.ref.scopes) {
		t.Fatalf("%s: depth %d, reference %d", ctx, w.tab.Depth(), len(w.ref.scopes))
	}
	if got, want := w.tab.Names(), len(w.ref.scopes[len(w.ref.scopes)-1]); got != want {
		t.Fatalf("%s: Names %d, reference %d", ctx, got, want)
	}
	for _, n := range names {
		got, want := w.tab.Classify(n, use), w.ref.Classify(n, use)
		if !s.Equal(got.TypedefCond, want.TypedefCond) || !s.Equal(got.OtherCond, want.OtherCond) {
			t.Fatalf("%s: Classify(%s) = %s/%s, reference %s/%s", ctx, n,
				s.String(got.TypedefCond), s.String(got.OtherCond),
				s.String(want.TypedefCond), s.String(want.OtherCond))
		}
		if got, want := w.tab.Declared(n), w.ref.Declared(n); !s.Equal(got, want) {
			t.Fatalf("%s: Declared(%s) = %s, reference %s", ctx, n, s.String(got), s.String(want))
		}
		gt, gobj, gok := w.tab.CurrentScope(n)
		rt, robj, rok := w.ref.CurrentScope(n)
		if gok != rok || gok && (!s.Equal(gt, rt) || !s.Equal(gobj, robj)) {
			t.Fatalf("%s: CurrentScope(%s) = %s/%s/%v, reference %s/%s/%v", ctx, n,
				s.String(gt), s.String(gobj), gok, s.String(rt), s.String(robj), rok)
		}
	}
	if (w.tab.Touched() == nil) != (w.ref.trk == nil) {
		t.Fatalf("%s: tracking on=%v, reference on=%v", ctx, w.tab.Touched() != nil, w.ref.trk != nil)
	}
	if w.ref.trk == nil {
		return
	}
	if got, want := w.tab.Touched(), w.ref.trk.touched; len(got) != len(want) {
		t.Fatalf("%s: %d touched names, reference %d", ctx, len(got), len(want))
	} else {
		for n := range want {
			if !got[n] {
				t.Fatalf("%s: %s not touched, reference touched it", ctx, n)
			}
		}
	}
	got, want := w.tab.FileDefs(), w.ref.trk.defs
	if len(got) != len(want) {
		t.Fatalf("%s: %d file defs, reference %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].Name || got[i].Typedef != want[i].Typedef || !s.Equal(got[i].Cond, want[i].Cond) {
			t.Fatalf("%s: file def %d = %+v, reference %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestDifferentialAgainstReference drives the structurally shared table and
// the deep-copy reference through seeded random operation sequences and
// requires every observable to agree. The name pool is larger than foldAt,
// so scopes fold, clones share folded bases, and merges take both the
// shared-base and the divergent-base paths.
func TestDifferentialAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		differentialRun(t, seed, 500)
	}
}

func differentialRun(t *testing.T, seed int64, ops int) {
	r := rand.New(rand.NewSource(seed))
	s := cond.NewSpace(cond.ModeBDD)
	vars := []cond.Cond{s.Var("A"), s.Var("B"), s.Var("C"), s.Var("D")}
	lit := func() cond.Cond {
		v := vars[r.Intn(len(vars))]
		if r.Intn(2) == 0 {
			return s.Not(v)
		}
		return v
	}
	randCond := func() cond.Cond {
		switch r.Intn(5) {
		case 0:
			return s.True()
		case 1:
			return s.And(lit(), lit())
		case 2:
			return s.Or(lit(), lit())
		default:
			return lit()
		}
	}
	names := make([]string, 400)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	randName := func() string { return names[r.Intn(len(names))] }
	sample := func() []string {
		out := make([]string, 12)
		for i := range out {
			out[i] = randName()
		}
		return append(out, "never_declared")
	}

	pool := []twin{{New(s), newRef(s)}}
	pick := func() int { return r.Intn(len(pool)) }
	add := func(w twin) {
		if len(pool) < 8 {
			pool = append(pool, w)
		} else {
			pool[r.Intn(len(pool))] = w
		}
	}
	for op := 0; op < ops; op++ {
		ctx := fmt.Sprintf("seed %d op %d", seed, op)
		i := pick()
		switch k := r.Intn(20); {
		case k < 8:
			pool[i].define(randName(), randCond(), r.Intn(3) == 0)
		case k < 9:
			if pool[i].tab.Depth() < 4 {
				pool[i].enter()
			}
		case k < 10:
			pool[i].exit()
		case k < 12:
			add(pool[i].clone())
		case k < 14:
			// Fork, diverge, merge: the fmlr engine's shape. A nested fork
			// folds one side, so the two sides' layers diverge.
			sides := []twin{pool[i], pool[i].clone()}
			for n := r.Intn(8 * foldAt); n > 0; n-- {
				j := r.Intn(2)
				if r.Intn(foldAt) == 0 {
					sides[j] = sides[j].clone()
				}
				sides[j].define(randName(), randCond(), r.Intn(3) == 0)
			}
			pool[i] = sides[1].merge(sides[0])
		case k < 16:
			j := pick()
			if pool[i].mayMerge(pool[j]) {
				pool[i] = pool[i].merge(pool[j])
			}
		case k < 17:
			seedMap := map[string]cond.Cond{}
			for n := r.Intn(2 * foldAt); n > 0; n-- {
				seedMap[randName()] = randCond()
			}
			add(twin{NewSeeded(s, seedMap), newRefSeeded(s, seedMap)})
		case k < 18:
			pool[i].track()
		default:
			for j := range pool {
				pool[j].check(t, s, sample(), randCond(), ctx)
			}
		}
		pool[i].check(t, s, sample(), randCond(), ctx)
	}
	for j := range pool {
		pool[j].check(t, s, names, s.True(), fmt.Sprintf("seed %d final, table %d", seed, j))
	}
}

// TestMergeOrsDeltaWithInheritedBase pins the case a merge that walks only
// the deltas can get wrong: one side rewrites a name that sits in the
// shared base, the other side inherits the base entry unchanged. The
// rewrite narrowed the object condition (DefineTypedef's AndNot), so the
// merged entry must still OR in the inherited one.
func TestMergeOrsDeltaWithInheritedBase(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	root := twin{New(s), newRef(s)}
	root.define("T", s.True(), false)
	for i := 0; i <= foldAt; i++ {
		root.define(fmt.Sprintf("pad%d", i), s.True(), false)
	}
	left, right := root.clone(), root.clone()
	if !sharesLayers(left.tab, right.tab) {
		t.Fatal("clones past foldAt should share the folded layers")
	}
	left.define("T", a, true) // T: typedef under A, object under !A
	for _, m := range []twin{left.merge(right), right.merge(left)} {
		td, obj, ok := m.tab.CurrentScope("T")
		if !ok || !s.Equal(td, a) || !s.IsTrue(obj) {
			t.Errorf("merged T = typedef %s, object %s; want typedef A, object 1", s.String(td), s.String(obj))
		}
		m.check(t, s, []string{"T", "pad0"}, s.True(), "trap")
	}
}

// TestSharedLayersConcurrentClones reads two clones that share frozen layers
// from two goroutines while each writes its own delta. Run under -race it
// proves that no write reaches a shared layer.
func TestSharedLayersConcurrentClones(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	root := New(s)
	for i := 0; i <= 2*foldAt; i++ {
		root.DefineTypedef(fmt.Sprintf("base%d", i), s.True())
	}
	clones := []*Table{root.Clone(), root.Clone()}
	if !sharesLayers(clones[0], clones[1]) {
		t.Fatal("clones should share the frozen layers")
	}
	var wg sync.WaitGroup
	for g, tab := range clones {
		wg.Add(1)
		go func(g int, tab *Table) {
			defer wg.Done()
			v := s.Var(fmt.Sprintf("G%d", g))
			for i := 0; i <= 2*foldAt; i++ {
				name := fmt.Sprintf("base%d", i)
				tab.DefineObject(name, v)
				tab.DefineTypedef(fmt.Sprintf("own%d_%d", g, i), v)
				if cl := tab.Classify(name, s.True()); !s.Equal(cl.OtherCond, v) {
					t.Errorf("goroutine %d: %s other = %s", g, name, s.String(cl.OtherCond))
					return
				}
				if i%foldAt == 0 {
					tab = tab.Clone() // folds this table's own delta
				}
			}
		}(g, tab)
	}
	wg.Wait()
	for i := 0; i <= 2*foldAt; i++ {
		if cl := root.Classify(fmt.Sprintf("base%d", i), s.True()); !s.IsTrue(cl.TypedefCond) {
			t.Fatalf("root changed under its clones: base%d typedef = %s", i, s.String(cl.TypedefCond))
		}
	}
}

// sharesLayers reports whether two tables' file scopes share one non-empty
// stack of frozen layers.
func sharesLayers(a, b *Table) bool {
	la, lb := a.scopes[0].layers, b.scopes[0].layers
	return len(la) > 0 && len(la) == len(lb) && la[len(la)-1] == lb[len(lb)-1]
}
