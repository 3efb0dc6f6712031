package analysis

// This file is the per-unit extraction stage feeding the whole-corpus
// variability-aware linker (internal/link). It walks the unit's choice AST
// and emits, per external symbol, presence-conditioned link facts:
// definitions, tentative definitions, extern declarations and prototypes,
// and references that resolve outside the unit's internal names. Conditions
// leave the unit's space as space-independent formulas (one exporter per
// unit, so the DAG sharing survives), and the linker composes them across
// units through hcache.Canon ids.
//
// The unit-internal name set — static objects and functions, typedefs, and
// file-scope enumerators — is collected first into a symtab.Table scope, so
// references subtract it: a use of a static never becomes a cross-unit
// fact. Type signatures are canonical strings built from the declaration's
// specifier words and declarator shape (declared name replaced by "@",
// parameter names elided, storage classes dropped, braced struct/enum
// bodies collapsed to their tag), so two units spelling the same type
// compare equal byte-wise; conditional declaration fragments fork the
// signature into per-condition variants.

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/link"
	"repro/internal/symtab"
	"repro/internal/token"
)

// maxSigVariants caps the per-declaration signature fork: a declaration
// split by many conditionals crosses its fragments multiplicatively, and
// past this point extra variants are dropped deterministically (first
// variants in choice order win) rather than risking a blowup.
const maxSigVariants = 8

// ExtractLinkFacts walks the unit's choice AST and returns its conditional
// link facts in canonical order, with conditions exported from the unit's
// space. Units with no AST yield an empty, non-nil fact set.
func ExtractLinkFacts(u *Unit) *link.Facts {
	x := &extractor{
		unit:     u,
		space:    u.Space,
		internal: symtab.New(u.Space),
		facts:    make(map[factKey]*factAcc),
		refs:     make(map[refKey]*refAcc),
	}
	if u.AST != nil {
		// Pass A: the unit-internal name set, needed before any reference
		// can be classified (a static defined after its use is still
		// internal — C file scope is flat for linkage purposes).
		x.collecting = true
		x.top(u.AST, x.space.True())
		// Pass B: fact emission and reference collection.
		x.collecting = false
		x.top(u.AST, x.space.True())
	}
	return x.finish()
}

type factKey struct {
	name      string
	kind      link.FactKind
	file      string
	line, col int
	sig       string
}

type factAcc struct{ c cond.Cond }

type refKey struct {
	name      string
	line, col int
}

type refAcc struct {
	file string
	c    cond.Cond
}

type extractor struct {
	unit       *Unit
	space      *cond.Space
	collecting bool          // pass A: only populate the internal table
	internal   *symtab.Table // statics, typedefs, file-scope enumerators
	facts      map[factKey]*factAcc
	refs       map[refKey]*refAcc
}

// top iterates external declarations, conjoining hoisted choice conditions.
func (x *extractor) top(n *ast.Node, c cond.Cond) {
	if n == nil || x.space.IsFalse(c) || n.IsError() {
		return
	}
	switch n.Kind {
	case ast.KindToken:
		return
	case ast.KindChoice:
		for _, alt := range n.Alts {
			x.top(alt.Node, x.space.And(c, alt.Cond))
		}
		return
	}
	switch n.Label {
	case "FunctionDefinition":
		x.functionDefinition(n, c)
		return
	case "Declaration":
		x.declaration(n, c)
		return
	}
	for _, ch := range n.Children {
		x.top(ch, c)
	}
}

// declaration handles one file-scope declaration: internal names in pass A,
// facts plus initializer references in pass B.
func (x *extractor) declaration(n *ast.Node, c cond.Cond) {
	if len(n.Children) < 2 {
		return
	}
	specs := n.Children[1-1]
	specVars := x.sigVariants(specs, false)
	if x.collecting {
		// File-scope enumerators are constants with no linkage; register
		// every Enumerator in the declaration (specifier side included).
		x.collectEnumerators(n, c)
		for _, sv := range specVars {
			if !sv.isTypedef && !sv.isStatic {
				continue
			}
			vc := x.space.And(c, sv.c)
			x.eachDeclRoot(n.Children[1], vc, func(root *ast.Node, rc cond.Cond) {
				for _, site := range x.declSites(root, rc, false) {
					if sv.isTypedef {
						x.internal.DefineTypedef(site.name, site.c)
					} else {
						x.internal.DefineObject(site.name, site.c)
					}
				}
			})
		}
		return
	}
	x.eachDeclRoot(n.Children[1], c, func(root *ast.Node, rc cond.Cond) {
		sites := x.declSites(root, rc, false)
		declVars := x.sigVariants(root, false)
		for _, sv := range specVars {
			if sv.isTypedef || sv.isStatic {
				continue // internal; pass A recorded it
			}
			for _, site := range sites {
				base := x.space.And(site.c, sv.c)
				if x.space.IsFalse(base) {
					continue
				}
				kind := link.KindTentative
				switch {
				case site.hasInit:
					kind = link.KindDef // extern int x = 1 still defines
				case sv.isExtern || site.isFunc:
					kind = link.KindDecl
				}
				for _, dv := range declVars {
					fc := x.space.And(base, dv.c)
					if x.space.IsFalse(fc) {
						continue
					}
					x.fact(site, kind, joinSig(sv.words, dv.words), fc)
				}
			}
		}
		// Initializer expressions at file scope reference other symbols
		// (int *p = &other_unit_obj;).
		if w := x.refWalker(); root.Label == "InitializedDeclarator" && len(root.Children) > 1 {
			for _, init := range root.Children[1:] {
				w.walk(init, rc, true)
			}
		}
	})
}

// functionDefinition emits the definition fact (unless static) and walks
// the body for references.
func (x *extractor) functionDefinition(n *ast.Node, c cond.Cond) {
	if len(n.Children) == 0 {
		return
	}
	specs, decl := x.splitFuncDef(n)
	specVars := x.sigVariants(specs, false)
	sites := x.declSites(decl, c, false)
	if x.collecting {
		x.collectEnumerators(n, c)
		for _, sv := range specVars {
			if !sv.isStatic {
				continue
			}
			for _, site := range sites {
				x.internal.DefineObject(site.name, x.space.And(site.c, sv.c))
			}
		}
		return
	}
	declVars := x.sigVariants(decl, false)
	for _, sv := range specVars {
		if sv.isStatic || sv.isTypedef {
			continue
		}
		for _, site := range sites {
			base := x.space.And(site.c, sv.c)
			if x.space.IsFalse(base) {
				continue
			}
			for _, dv := range declVars {
				fc := x.space.And(base, dv.c)
				if x.space.IsFalse(fc) {
					continue
				}
				x.fact(site, link.KindDef, joinSig(sv.words, dv.words), fc)
			}
		}
	}
	// References: parameters open a scope wrapping the body; the walker's
	// table holds only function-local names, so anything that escapes it
	// (and the internal set) is a cross-unit reference.
	w := x.refWalker()
	w.table.EnterScope()
	w.defineParams(decl, c)
	for _, ch := range n.Children {
		if ch != nil && ch.Label == "CompoundStatement" {
			w.walk(ch, c, false)
		}
	}
	w.table.ExitScope()
}

// splitFuncDef separates a FunctionDefinition's specifier child from its
// declarator child (either may be missing or a choice).
func (x *extractor) splitFuncDef(n *ast.Node) (specs, decl *ast.Node) {
	for _, ch := range n.Children {
		if ch == nil || ch.Label == "CompoundStatement" {
			continue
		}
		if ch.Label == "DeclarationSpecifiers" && specs == nil && decl == nil {
			specs = ch
			continue
		}
		if decl == nil {
			decl = ch
		}
	}
	return specs, decl
}

// collectEnumerators registers every Enumerator name in the subtree as a
// unit-internal constant under its path condition.
func (x *extractor) collectEnumerators(n *ast.Node, c cond.Cond) {
	if n == nil || x.space.IsFalse(c) || n.IsError() {
		return
	}
	if n.Kind == ast.KindChoice {
		for _, alt := range n.Alts {
			x.collectEnumerators(alt.Node, x.space.And(c, alt.Cond))
		}
		return
	}
	if n.Label == "Enumerator" && len(n.Children) > 0 && n.Children[0].Kind == ast.KindToken {
		x.internal.DefineObject(n.Children[0].Text(), c)
	}
	for _, ch := range n.Children {
		x.collectEnumerators(ch, c)
	}
}

// declaratorLabels are the node labels that root one declarator.
var declaratorLabels = map[string]bool{
	"IdentifierDeclarator":  true,
	"PointerDeclarator":     true,
	"ArrayDeclarator":       true,
	"FunctionDeclarator":    true,
	"ParenDeclarator":       true,
	"InitializedDeclarator": true,
	"AttributedDeclarator":  true,
}

// eachDeclRoot finds the individual declarator roots under a declaration's
// declarator part (a single declarator, a comma list, or choices thereof),
// invoking fn with each root and its path condition.
func (x *extractor) eachDeclRoot(n *ast.Node, c cond.Cond, fn func(*ast.Node, cond.Cond)) {
	if n == nil || x.space.IsFalse(c) || n.IsError() {
		return
	}
	switch n.Kind {
	case ast.KindToken:
		return
	case ast.KindChoice:
		for _, alt := range n.Alts {
			x.eachDeclRoot(alt.Node, x.space.And(c, alt.Cond), fn)
		}
		return
	}
	if declaratorLabels[n.Label] {
		fn(n, c)
		return
	}
	for _, ch := range n.Children {
		x.eachDeclRoot(ch, c, fn)
	}
}

// declSite is one declared name within a declarator, with the condition
// under which that spelling exists and the shape classification the fact
// kind depends on.
type declSite struct {
	name      string
	file      string // token's source file ("" falls back to the unit path)
	line, col int
	c         cond.Cond
	isFunc    bool // the name declares a function (not a function pointer)
	hasInit   bool
}

// declSites digs the declarator spine for declared names. inFunc tracks
// whether the innermost wrapper crossed so far is a FunctionDeclarator:
// FunctionDeclarator(Identifier) declares a function, while
// Pointer(FunctionDeclarator(...)) keeps declaring a function (pointer
// result type) and FunctionDeclarator(Paren(Pointer(Identifier))) declares
// a function pointer — an object.
func (x *extractor) declSites(n *ast.Node, c cond.Cond, inFunc bool) []declSite {
	if n == nil || x.space.IsFalse(c) || n.IsError() {
		return nil
	}
	switch n.Kind {
	case ast.KindToken:
		return nil
	case ast.KindChoice:
		var out []declSite
		for _, alt := range n.Alts {
			out = append(out, x.declSites(alt.Node, x.space.And(c, alt.Cond), inFunc)...)
		}
		return out
	}
	switch n.Label {
	case "IdentifierDeclarator":
		if len(n.Children) == 1 && n.Children[0].Kind == ast.KindToken {
			t := n.Children[0].Tok
			return []declSite{{name: t.Text, file: t.File, line: t.Line, col: t.Col, c: c, isFunc: inFunc}}
		}
		return nil
	case "InitializedDeclarator":
		if len(n.Children) == 0 {
			return nil
		}
		sites := x.declSites(n.Children[0], c, inFunc)
		for i := range sites {
			sites[i].hasInit = true
		}
		return sites
	case "FunctionDeclarator":
		if len(n.Children) == 0 {
			return nil
		}
		return x.declSites(n.Children[0], c, true)
	case "ArrayDeclarator":
		if len(n.Children) == 0 {
			return nil
		}
		return x.declSites(n.Children[0], c, false)
	case "PointerDeclarator":
		var out []declSite
		for _, ch := range n.Children {
			if ch != nil && ch.Label != "Pointer" {
				out = append(out, x.declSites(ch, c, false)...)
			}
		}
		return out
	}
	// ParenDeclarator, AttributedDeclarator, and defensive defaults pass the
	// classification through.
	var out []declSite
	for _, ch := range n.Children {
		out = append(out, x.declSites(ch, c, inFunc)...)
	}
	return out
}

// sigVar is one signature fragment variant: the canonical words and the
// condition (relative to the fragment's root) selecting them.
type sigVar struct {
	words     []string
	c         cond.Cond
	isTypedef bool
	isExtern  bool
	isStatic  bool
}

// droppedSpecWords are specifier tokens that never affect link-time type
// identity: storage classes (flagged separately) and function specifiers.
var droppedSpecWords = map[string]string{
	"typedef": "t", "extern": "e", "static": "s",
	"auto": "", "register": "", "inline": "", "_Noreturn": "",
	"_Thread_local": "", "__inline": "", "__inline__": "", "__forceinline": "",
}

// sigVariants builds the canonical signature-word variants of a specifier
// or declarator subtree. Choices fork variants (conditions conjoined down
// the path); sequential children cross-multiply, capped at maxSigVariants
// with deterministic drop order. inParam elides parameter names.
func (x *extractor) sigVariants(n *ast.Node, inParam bool) []sigVar {
	if n == nil || n.IsError() {
		return x.emptySig()
	}
	switch n.Kind {
	case ast.KindToken:
		t := n.Tok.Text
		if flag, dropped := droppedSpecWords[t]; dropped {
			v := sigVar{c: x.space.True()}
			switch flag {
			case "t":
				v.isTypedef = true
			case "e":
				v.isExtern = true
			case "s":
				v.isStatic = true
			}
			return []sigVar{v}
		}
		return []sigVar{{words: []string{t}, c: x.space.True()}}
	case ast.KindChoice:
		var out []sigVar
		for _, alt := range n.Alts {
			ac := alt.Cond
			for _, v := range x.sigVariants(alt.Node, inParam) {
				vc := x.space.And(ac, v.c)
				if x.space.IsFalse(vc) {
					continue
				}
				v.c = vc
				out = append(out, v)
				if len(out) >= maxSigVariants {
					return out
				}
			}
		}
		if len(out) == 0 {
			return x.emptySig()
		}
		return out
	}
	switch n.Label {
	case "IdentifierDeclarator":
		if inParam {
			return x.emptySig() // parameter names never affect the type
		}
		return []sigVar{{words: []string{"@"}, c: x.space.True()}}
	case "InitializedDeclarator":
		if len(n.Children) == 0 {
			return x.emptySig()
		}
		return x.sigVariants(n.Children[0], inParam) // "=" and initializer excluded
	case "ParameterDeclaration":
		return x.crossChildren(n.Children, true)
	case "StructSpecifier", "StructRef", "EnumSpecifier", "EnumRef":
		return []sigVar{{words: collapseTagged(n), c: x.space.True()}}
	}
	return x.crossChildren(n.Children, inParam)
}

// emptySig is the one empty variant: no words, under True.
func (x *extractor) emptySig() []sigVar {
	return []sigVar{{c: x.space.True()}}
}

// crossChildren multiplies the children's variants left to right. The
// common case, one variant under the True constant on both sides (an
// identity test, so no solver call in SAT mode), appends the child's words
// in place, so a declarator costs time linear in its words. That is safe
// because out's word slices belong to this call: each is fresh or shared
// only among out's own variants, and out has one variant when it writes.
func (x *extractor) crossChildren(children []*ast.Node, inParam bool) []sigVar {
	out := x.emptySig()
	tru := out[0].c
	for _, ch := range children {
		if ch == nil {
			continue
		}
		bs := x.sigVariants(ch, inParam)
		if len(out) == 1 && len(bs) == 1 && out[0].c == tru && bs[0].c == tru {
			a, b := &out[0], bs[0]
			a.words = append(a.words, b.words...)
			a.isTypedef = a.isTypedef || b.isTypedef
			a.isExtern = a.isExtern || b.isExtern
			a.isStatic = a.isStatic || b.isStatic
			continue
		}
		next := out[:0:0]
		for _, a := range out {
			for _, b := range bs {
				c := x.space.And(a.c, b.c)
				if x.space.IsFalse(c) {
					continue
				}
				words := a.words
				if len(b.words) > 0 {
					words = append(append([]string(nil), a.words...), b.words...)
				}
				next = append(next, sigVar{
					words:     words,
					c:         c,
					isTypedef: a.isTypedef || b.isTypedef,
					isExtern:  a.isExtern || b.isExtern,
					isStatic:  a.isStatic || b.isStatic,
				})
				if len(next) >= maxSigVariants {
					break
				}
			}
			if len(next) >= maxSigVariants {
				break
			}
		}
		if len(next) > 0 {
			out = next
		}
	}
	return out
}

// collapseTagged renders a struct/union/enum specifier as its keyword plus
// tag, ignoring a braced body: link-time type identity for aggregates is
// nominal, and two units each defining "struct pt {...}" agree exactly when
// the tags agree.
func collapseTagged(n *ast.Node) []string {
	var words []string
	for _, ch := range n.Children {
		if ch == nil || ch.Kind != ast.KindToken {
			continue
		}
		t := ch.Tok.Text
		if t == "{" {
			break
		}
		words = append(words, t)
	}
	if len(words) == 1 {
		words = append(words, "<anon>")
	}
	return words
}

func joinSig(spec, decl []string) string {
	n := len(spec) + len(decl)
	if n == 0 {
		return ""
	}
	out := make([]byte, 0, n*8)
	for _, w := range spec {
		if len(out) > 0 {
			out = append(out, ' ')
		}
		out = append(out, w...)
	}
	for _, w := range decl {
		if len(out) > 0 {
			out = append(out, ' ')
		}
		out = append(out, w...)
	}
	return string(out)
}

// fact records one def/decl/tentative sighting, merging repeats (choice
// alternatives landing on the same site and signature) by disjunction.
func (x *extractor) fact(site declSite, kind link.FactKind, sig string, c cond.Cond) {
	if site.name == "" || x.space.IsFalse(c) {
		return
	}
	file := site.file
	if file == "" {
		file = x.unit.File
	}
	key := factKey{name: site.name, kind: kind, file: file, line: site.line, col: site.col, sig: sig}
	if acc, ok := x.facts[key]; ok {
		acc.c = x.space.Or(acc.c, c)
		return
	}
	x.facts[key] = &factAcc{c: c}
}

// ref records one reference sighting after subtracting local declarations
// and the unit-internal name set.
func (x *extractor) ref(tok token.Token, c cond.Cond) {
	c = x.space.AndNot(c, x.internal.Declared(tok.Text))
	if x.space.IsFalse(c) {
		return
	}
	file := tok.File
	if file == "" {
		file = x.unit.File
	}
	key := refKey{name: tok.Text, line: tok.Line, col: tok.Col}
	if acc, ok := x.refs[key]; ok {
		acc.c = x.space.Or(acc.c, c)
		return
	}
	x.refs[key] = &refAcc{file: file, c: c}
}

// finish merges facts and references into canonical order and exports every
// condition through one exporter, preserving formula sharing.
func (x *extractor) finish() *link.Facts {
	ex := x.space.NewExporter()
	bySym := make(map[string][]link.Fact)
	keys := make([]factKey, 0, len(x.facts))
	for k := range x.facts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		switch {
		case a.name != b.name:
			return a.name < b.name
		case a.kind != b.kind:
			return a.kind < b.kind
		case a.line != b.line:
			return a.line < b.line
		case a.col != b.col:
			return a.col < b.col
		default:
			return a.sig < b.sig
		}
	})
	for _, k := range keys {
		bySym[k.name] = append(bySym[k.name], link.Fact{
			Kind: k.kind, File: k.file, Line: k.line, Col: k.col, Sig: k.sig,
			Cond: ex.Export(x.facts[k].c),
		})
	}
	rkeys := make([]refKey, 0, len(x.refs))
	for k := range x.refs {
		rkeys = append(rkeys, k)
	}
	sort.Slice(rkeys, func(i, j int) bool {
		a, b := rkeys[i], rkeys[j]
		switch {
		case a.name != b.name:
			return a.name < b.name
		case a.line != b.line:
			return a.line < b.line
		default:
			return a.col < b.col
		}
	})
	for _, k := range rkeys {
		bySym[k.name] = append(bySym[k.name], link.Fact{
			Kind: link.KindRef, File: x.refs[k].file, Line: k.line, Col: k.col,
			Cond: ex.Export(x.refs[k].c),
		})
	}
	out := &link.Facts{Unit: x.unit.File}
	for name, facts := range bySym {
		out.Symbols = append(out.Symbols, link.Symbol{Name: name, Facts: facts})
	}
	out.Normalize()
	return out
}

// refWalker returns the body/initializer reference walker sharing the
// extractor's accumulators. Its symbol table holds only function-local
// names: file-scope names deliberately stay out, so a unit referencing its
// own conditional definition still emits the reference and the linker sees
// the gap when no configuration's definition covers it.
func (x *extractor) refWalker() *linkRefWalker {
	return &linkRefWalker{x: x, space: x.space, table: symtab.New(x.space)}
}

// linkRefWalker mirrors the undefuse pass's traversal — scopes, declarator
// registration, and namespace skips proven there — but records escapes as
// link references instead of diagnostics.
type linkRefWalker struct {
	x     *extractor
	space *cond.Space
	table *symtab.Table
}

func (w *linkRefWalker) walk(n *ast.Node, c cond.Cond, inBody bool) {
	if n == nil || w.space.IsFalse(c) || n.IsError() {
		return
	}
	switch n.Kind {
	case ast.KindToken:
		if inBody && n.Tok.Kind == token.Identifier {
			w.use(*n.Tok, c)
		}
		return
	case ast.KindChoice:
		for _, alt := range n.Alts {
			w.walk(alt.Node, w.space.And(c, alt.Cond), inBody)
		}
		return
	}
	switch n.Label {
	case "CompoundStatement":
		w.table.EnterScope()
		for _, ch := range n.Children {
			w.walk(ch, c, true)
		}
		w.table.ExitScope()
		return
	case "Declaration":
		w.declaration(n, c, inBody)
		return
	case "FunctionDefinition":
		w.functionDefinition(n, c)
		return
	case "MemberExpr", "ArrowExpr":
		if len(n.Children) > 0 {
			w.walk(n.Children[0], c, inBody)
		}
		return
	case "LabelStatement":
		if len(n.Children) > 0 {
			w.walk(n.Children[len(n.Children)-1], c, inBody)
		}
		return
	case "GotoStatement", "TypeName", "StructSpecifier", "EnumSpecifier", "FieldDesignator":
		return
	}
	for _, ch := range n.Children {
		w.walk(ch, c, inBody)
	}
}

func (w *linkRefWalker) declaration(n *ast.Node, c cond.Cond, inBody bool) {
	if len(n.Children) < 2 {
		return
	}
	// Block-scope enumerators are local constants, not references.
	w.declareEnumerators(n.Children[0], c)
	isTypedef := HasLeaf(n.Children[0], "typedef")
	w.declare(n.Children[1], c, isTypedef, inBody)
}

func (w *linkRefWalker) declareEnumerators(n *ast.Node, c cond.Cond) {
	if n == nil || w.space.IsFalse(c) || n.IsError() {
		return
	}
	if n.Kind == ast.KindChoice {
		for _, alt := range n.Alts {
			w.declareEnumerators(alt.Node, w.space.And(c, alt.Cond))
		}
		return
	}
	if n.Label == "Enumerator" && len(n.Children) > 0 && n.Children[0].Kind == ast.KindToken {
		w.table.DefineObject(n.Children[0].Text(), c)
	}
	for _, ch := range n.Children {
		w.declareEnumerators(ch, c)
	}
}

func (w *linkRefWalker) declare(n *ast.Node, c cond.Cond, isTypedef, inBody bool) {
	if n == nil || w.space.IsFalse(c) || n.IsError() {
		return
	}
	switch n.Kind {
	case ast.KindToken:
		return
	case ast.KindChoice:
		for _, alt := range n.Alts {
			w.declare(alt.Node, w.space.And(c, alt.Cond), isTypedef, inBody)
		}
		return
	}
	switch n.Label {
	case "IdentifierDeclarator":
		if len(n.Children) == 1 && n.Children[0].Kind == ast.KindToken {
			w.define(n.Children[0].Text(), c, isTypedef)
		}
		return
	case "InitializedDeclarator":
		if len(n.Children) > 0 {
			w.declare(n.Children[0], c, isTypedef, inBody)
			for _, init := range n.Children[1:] {
				if inBody {
					w.walk(init, c, true)
				}
			}
		}
		return
	case "ParameterDeclaration", "StructSpecifier", "EnumSpecifier":
		return
	}
	for _, ch := range n.Children {
		w.declare(ch, c, isTypedef, inBody)
	}
}

func (w *linkRefWalker) functionDefinition(n *ast.Node, c cond.Cond) {
	if name, _, _ := DeclaredNamePos(n); name != "" {
		w.define(name, c, false)
	}
	w.table.EnterScope()
	w.defineParams(n, c)
	for _, ch := range n.Children {
		if ch != nil && ch.Label == "CompoundStatement" {
			w.walk(ch, c, false)
		}
	}
	w.table.ExitScope()
}

func (w *linkRefWalker) defineParams(n *ast.Node, c cond.Cond) {
	if n == nil || w.space.IsFalse(c) || n.IsError() {
		return
	}
	if n.Kind == ast.KindChoice {
		for _, alt := range n.Alts {
			w.defineParams(alt.Node, w.space.And(c, alt.Cond))
		}
		return
	}
	if n.Label == "ParameterDeclaration" {
		// declaredNamePos prunes at ParameterDeclaration nodes (it digs
		// function names, skipping their params), so dig the children.
		for _, ch := range n.Children {
			if name, _, _ := DeclaredNamePos(ch); name != "" {
				w.define(name, c, false)
				break
			}
		}
		return
	}
	if n.Label == "CompoundStatement" {
		return
	}
	for _, ch := range n.Children {
		w.defineParams(ch, c)
	}
}

func (w *linkRefWalker) define(name string, c cond.Cond, isTypedef bool) {
	if name == "" {
		return
	}
	if isTypedef {
		w.table.DefineTypedef(name, c)
	} else {
		w.table.DefineObject(name, c)
	}
}

// use records an identifier sighting, subtracting the locally-declared
// condition; what escapes becomes a link reference (the extractor further
// subtracts the unit-internal names). Keywords lex as identifiers in this
// pipeline (reclassification is a parse-time concern), so they are filtered
// here — unlike undefuse, the linker cannot rely on the "never declared
// anywhere" filter, because never-declared names are exactly the undef-ref
// candidates.
func (w *linkRefWalker) use(tok token.Token, c cond.Cond) {
	if cgrammar.IsKeyword(tok.Text) {
		return
	}
	escaped := w.space.AndNot(c, w.table.Declared(tok.Text))
	if w.space.IsFalse(escaped) {
		return
	}
	w.x.ref(tok, escaped)
}

// LinkDiagnostic converts a corpus-level linker finding into a framework
// diagnostic, so the linker's output renders through the same text, JSON,
// and SARIF writers as per-unit passes.
func LinkDiagnostic(f link.Finding) Diagnostic {
	return Diagnostic{
		Pass:            f.Pass(),
		File:            f.File,
		Line:            f.Line,
		Col:             f.Col,
		Msg:             f.Message(),
		CondStr:         f.CondStr,
		Witness:         f.Witness,
		WitnessVerified: f.WitnessVerified,
	}
}

// SortDiags sorts diagnostics into the framework's total output order —
// exported for callers that merge diagnostics from several producers
// (per-unit passes plus linker findings).
func SortDiags(diags []Diagnostic) []Diagnostic { return sortDiags(diags) }
