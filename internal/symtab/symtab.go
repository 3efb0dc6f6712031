// Package symtab implements the configuration-dependent symbol table behind
// SuperC's context-management plugin (paper §5.2).
//
// C is context-sensitive: a name is either a typedef name or an
// object/function/enum-constant name, and the two parse differently
// ("T * p;" is a declaration or a multiplication). In the presence of
// static conditionals a name can be *both*, under different presence
// conditions. The table therefore maps, per C scope, each name to the
// conditions under which it denotes a type and under which it denotes a
// value. The parser's reclassify hook consults it for every identifier; an
// ambiguously-defined name forces an extra subparser fork even without an
// explicit conditional.
package symtab

import (
	"maps"

	"repro/internal/cond"
)

// entry records one name's classification conditions within a scope.
type entry struct {
	typedefCond cond.Cond // name denotes a type
	objectCond  cond.Cond // name denotes a value (object/function/enum constant)
}

// foldAt is the delta size past which Clone freezes a scope's delta into a
// new layer, so a fork copies at most foldAt entries per scope.
const foldAt = 16

// layerRatio bounds the layer stack: a new layer is merged into the one
// below it while it holds more than 1/layerRatio as many entries. Layer
// sizes therefore grow geometrically downward, a scope with n names has
// O(log n) layers, and each entry is recopied O(log n) times over its life.
const layerRatio = 4

// layer is a frozen map of entries. It is built once, by NewSeeded or a
// fold, and never written afterwards, so any number of tables (and
// goroutines) may share it. Scopes hold layers by pointer so that Merge can
// recognise a shared one by pointer equality; maps are not comparable.
type layer map[string]entry

// scope is one C language scope: a stack of shared frozen layers, oldest
// first, overlaid by a delta owned by this table. A name's entry is its
// delta entry if present, else its entry in the newest layer that has one.
// Writes go to the delta only. The layers slice is shared too, so it is
// never appended to or written in place; a fold builds a new one.
type scope struct {
	layers []*layer
	delta  map[string]entry // nil until the first write
}

func (sc *scope) get(name string) (entry, bool) {
	if e, ok := sc.delta[name]; ok {
		return e, true
	}
	for i := len(sc.layers) - 1; i >= 0; i-- {
		if e, ok := (*sc.layers[i])[name]; ok {
			return e, true
		}
	}
	return entry{}, false
}

func (sc *scope) set(name string, e entry) {
	if sc.delta == nil {
		sc.delta = map[string]entry{}
	}
	sc.delta[name] = e
}

// fork returns a scope that shares sc's layers and owns a copy of its
// delta. A delta past foldAt is first frozen into a new layer, which sc
// adopts too, so sc and all its later forks share the fold.
func (sc *scope) fork() scope {
	if len(sc.delta) > foldAt {
		top := layer(sc.delta)
		n := len(sc.layers)
		for n > 0 && len(top)*layerRatio > len(*sc.layers[n-1]) {
			merged := make(layer, len(*sc.layers[n-1])+len(top))
			maps.Copy(merged, *sc.layers[n-1])
			maps.Copy(merged, top)
			top, n = merged, n-1
		}
		sc.layers = append(sc.layers[:n:n], &top)
		sc.delta = nil
	}
	return scope{layers: sc.layers, delta: maps.Clone(sc.delta)}
}

// visit calls f for every name in the layers from index k up and in the
// delta. A name may be visited more than once.
func (sc *scope) visit(k int, f func(name string)) {
	for _, l := range sc.layers[k:] {
		for name := range *l {
			f(name)
		}
	}
	for name := range sc.delta {
		f(name)
	}
}

// size returns the number of distinct names in the scope.
func (sc *scope) size() int {
	seen := map[string]bool{}
	sc.visit(0, func(name string) { seen[name] = true })
	return len(seen)
}

// FileDef is one file-scope definition event, recorded in program order when
// tracking is enabled. The region-parallel parser replays each region's def
// stream to validate the typedef seeds it guessed for later regions.
type FileDef struct {
	Name    string
	Cond    cond.Cond
	Typedef bool // true for a typedef definition, false for an object one
}

// tracker accumulates the file-scope observations of one parse: which names
// were ever classified (touched) and which file-scope definitions happened,
// in order. It is shared by pointer across Clone/Merge so the whole subparser
// family of one engine writes into one stream; engines are single-threaded,
// so no locking is needed.
type tracker struct {
	touched map[string]bool
	defs    []FileDef
}

// Table is the conditional symbol table. The zero value is not usable; call
// New.
type Table struct {
	space  *cond.Space
	scopes []scope
	trk    *tracker // nil unless Track was called; shared across Clone/Merge
}

// New returns a table with the file scope open.
func New(s *cond.Space) *Table {
	return &Table{space: s, scopes: []scope{{}}}
}

// NewSeeded returns a table whose file scope is pre-populated with typedef
// meanings: each name denotes a type under its seed condition and nothing
// otherwise. The region-parallel parser seeds a mid-unit region's table from
// a lexical prescan; only the typedef condition matters because with a single
// open scope Classify never consults object conditions.
func NewSeeded(s *cond.Space, seed map[string]cond.Cond) *Table {
	l := make(layer, len(seed))
	for name, c := range seed {
		l[name] = entry{typedefCond: c, objectCond: s.False()}
	}
	return &Table{space: s, scopes: []scope{{layers: []*layer{&l}}}}
}

// Track enables observation recording on this table (and, via the shared
// tracker, on every table later cloned or merged from it).
func (t *Table) Track() {
	if t.trk == nil {
		t.trk = &tracker{touched: map[string]bool{}}
	}
}

// Touched returns the set of names Classify was asked about, or nil when
// tracking is off.
func (t *Table) Touched() map[string]bool {
	if t.trk == nil {
		return nil
	}
	return t.trk.touched
}

// FileDefs returns the ordered file-scope definition events, or nil when
// tracking is off.
func (t *Table) FileDefs() []FileDef {
	if t.trk == nil {
		return nil
	}
	return t.trk.defs
}

// Clone returns an independent copy of the table (the forkContext
// callback). It copies only each scope's delta, at most foldAt entries; the
// layers are shared. Folding may reorganize t's representation (never its
// contents), so Clone must not run concurrently with other uses of t.
func (t *Table) Clone() *Table {
	nt := &Table{space: t.space, scopes: make([]scope, len(t.scopes)), trk: t.trk}
	for i := range t.scopes {
		nt.scopes[i] = t.scopes[i].fork()
	}
	return nt
}

// EnterScope opens a nested scope.
func (t *Table) EnterScope() {
	t.scopes = append(t.scopes, scope{})
}

// ExitScope closes the innermost scope.
func (t *Table) ExitScope() {
	if len(t.scopes) > 1 {
		t.scopes = t.scopes[:len(t.scopes)-1]
	}
}

// Depth returns the scope nesting depth.
func (t *Table) Depth() int { return len(t.scopes) }

func (t *Table) top() *scope { return &t.scopes[len(t.scopes)-1] }

// DefineTypedef records that name denotes a type under c in the current
// scope.
func (t *Table) DefineTypedef(name string, c cond.Cond) {
	if t.trk != nil && len(t.scopes) == 1 {
		t.trk.defs = append(t.trk.defs, FileDef{Name: name, Cond: c, Typedef: true})
	}
	sc := t.top()
	e, _ := sc.get(name)
	if e.typedefCond == (cond.Cond{}) {
		e.typedefCond = c
	} else {
		e.typedefCond = t.space.Or(e.typedefCond, c)
	}
	if e.objectCond == (cond.Cond{}) {
		e.objectCond = t.space.False()
	} else {
		// A later typedef shadows an object declaration under c.
		e.objectCond = t.space.AndNot(e.objectCond, c)
	}
	sc.set(name, e)
}

// DefineObject records that name denotes a value under c in the current
// scope (shadowing any typedef meaning under c).
func (t *Table) DefineObject(name string, c cond.Cond) {
	if t.trk != nil && len(t.scopes) == 1 {
		t.trk.defs = append(t.trk.defs, FileDef{Name: name, Cond: c, Typedef: false})
	}
	sc := t.top()
	e, _ := sc.get(name)
	if e.objectCond == (cond.Cond{}) {
		e.objectCond = c
	} else {
		e.objectCond = t.space.Or(e.objectCond, c)
	}
	if e.typedefCond == (cond.Cond{}) {
		e.typedefCond = t.space.False()
	} else {
		e.typedefCond = t.space.AndNot(e.typedefCond, c)
	}
	sc.set(name, e)
}

// Classification reports under which conditions a name denotes a type. The
// lookup honors shadowing: an inner-scope entry hides outer entries only
// under the conditions where the inner entry says something.
type Classification struct {
	TypedefCond cond.Cond // name is a typedef name
	OtherCond   cond.Cond // name is an ordinary identifier
}

// Classify resolves name under use condition c.
func (t *Table) Classify(name string, c cond.Cond) Classification {
	if t.trk != nil {
		t.trk.touched[name] = true
	}
	s := t.space
	remaining := c
	td := s.False()
	for i := len(t.scopes) - 1; i >= 0 && !s.IsFalse(remaining); i-- {
		e, ok := t.scopes[i].get(name)
		if !ok {
			continue
		}
		td = s.Or(td, s.And(remaining, e.typedefCond))
		covered := s.Or(e.typedefCond, e.objectCond)
		remaining = s.AndNot(remaining, covered)
	}
	// Names never declared (remaining) are ordinary identifiers.
	return Classification{
		TypedefCond: td,
		OtherCond:   s.AndNot(c, td),
	}
}

// Declared returns the conditions under which name has any declaration in
// scope — typedef or object meaning, any scope level. The analysis passes
// use it to decide whether an identifier use is covered by a declaration
// under every configuration that reaches the use.
func (t *Table) Declared(name string) cond.Cond {
	var c cond.Cond
	for i := len(t.scopes) - 1; i >= 0; i-- {
		e, ok := t.scopes[i].get(name)
		if !ok {
			continue
		}
		c = orDefined(t.space, c, orDefined(t.space, e.typedefCond, e.objectCond))
	}
	if c == (cond.Cond{}) {
		return t.space.False()
	}
	return c
}

// CurrentScope returns name's classification conditions in the innermost
// scope only, without consulting outer scopes. The conditional-redefinition
// pass queries it before registering a definition: an overlap with an
// existing same-scope entry is a redefinition, whereas an outer-scope entry
// is legal shadowing. ok is false when the scope has no entry for name.
func (t *Table) CurrentScope(name string) (typedefCond, objectCond cond.Cond, ok bool) {
	e, ok := t.top().get(name)
	if !ok {
		return cond.Cond{}, cond.Cond{}, false
	}
	return e.typedefCond, e.objectCond, true
}

// MayMerge allows merging only at the same scope nesting level (paper
// §5.2).
func (t *Table) MayMerge(o *Table) bool {
	return len(t.scopes) == len(o.scopes)
}

// Merge combines another table into this one: for each scope level, names'
// conditions are disjoined. Both subparsers' registrations were made under
// their own presence conditions, so a plain disjunction is sound. The
// result shares t's layers and owns fresh deltas; t and o are unchanged.
func (t *Table) Merge(o *Table) *Table {
	merged := &Table{space: t.space, scopes: make([]scope, len(t.scopes)), trk: t.trk}
	for i := range t.scopes {
		a := &t.scopes[i]
		out := scope{layers: a.layers, delta: maps.Clone(a.delta)}
		if i < len(o.scopes) {
			mergeScope(t.space, &out, a, &o.scopes[i])
		}
		merged.scopes[i] = out
	}
	return merged
}

// mergeScope disjoins b's entries into out, which starts as a copy of a.
// Layers that a and b share hold the same entries on both sides, so only
// names above the longest shared prefix of layers can differ, and only
// those are walked: for two clones of one table that is just the deltas
// and any layers folded since. Each such name is ORed with whatever entry
// the other side sees, even one it inherits from a shared layer: the
// AndNot in DefineTypedef/DefineObject can narrow an entry below the one
// it replaced, so a rewritten entry does not subsume the inherited one.
func mergeScope(s *cond.Space, out, a, b *scope) {
	k := 0
	for k < len(a.layers) && k < len(b.layers) && a.layers[k] == b.layers[k] {
		k++
	}
	merge := func(name string) {
		eb, ok := b.get(name)
		if !ok {
			return
		}
		ea, ok := a.get(name)
		switch {
		case !ok:
			out.set(name, eb)
		case ea != eb:
			out.set(name, entry{
				typedefCond: orDefined(s, ea.typedefCond, eb.typedefCond),
				objectCond:  orDefined(s, ea.objectCond, eb.objectCond),
			})
		}
	}
	a.visit(k, merge)
	b.visit(k, merge)
}

func orDefined(s *cond.Space, a, b cond.Cond) cond.Cond {
	zero := cond.Cond{}
	switch {
	case a == zero:
		return b
	case b == zero:
		return a
	default:
		return s.Or(a, b)
	}
}

// Names returns the number of distinct names in the innermost scope (for
// tests).
func (t *Table) Names() int { return t.top().size() }
