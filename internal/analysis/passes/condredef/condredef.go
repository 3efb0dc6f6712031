// Package condredef reports names defined more than once under overlapping
// presence conditions — the configuration-dependent double definition a
// single-configuration compiler only sees for the one configuration it
// builds. It is scope-aware (an inner-scope definition legally shadows an
// outer one; only same-scope overlap is a redefinition) and type-kind-aware
// (a name that is a typedef under one configuration and an object under an
// overlapping one is reported as a kind conflict, the nastier bug because it
// changes how downstream code parses).
package condredef

import (
	"repro/internal/analysis"
	"repro/internal/cond"
	"repro/internal/symtab"
)

// Analyzer is the conditional-redefinition pass.
var Analyzer = &analysis.Analyzer{
	Name: "condredef",
	Doc:  "report same-scope redefinitions under overlapping presence conditions",
	Run:  run,
}

func run(p *analysis.Pass) error {
	u := p.Unit

	// File scope: the shared symbol index already holds every top-level
	// definition with its condition; report overlapping pairs kind-aware.
	for _, c := range p.Facts.ConflictingDefinitions() {
		p.Report(analysis.Diagnostic{
			File: c.B.File, Line: c.B.Line, Col: c.B.Col,
			Cond: c.Under,
			Msg:  conflictMsg(c),
		})
	}

	// Block scopes: check each block-scope declarator and enumerator against
	// the entries already in its own scope before it enters the table (an
	// enumerator as an object); a block-scope extern declaration refers, it
	// does not define. Parameters stay out: the walker gives them a scope of
	// their own. Distinct textual definitions visited through different
	// choice alternatives carry disjoint conditions, so re-visits of one
	// definition never self-conflict.
	if u.AST != nil {
		analysis.NewScopes(u.Space, func(tab *symtab.Table, s analysis.Sighting) bool {
			if tab.Depth() == 1 || (s.Kind != analysis.Declarator && s.Kind != analysis.Enumerator) ||
				(s.Kind == analysis.Declarator && analysis.HasLeaf(s.Decl.Children[0], "extern")) {
				return false
			}
			checkRedefinition(p, tab, s)
			return true
		}).Walk(u.AST, u.Space.True(), false)
	}
	return nil
}

func conflictMsg(c analysis.Conflict) string {
	if c.A.Kind == c.B.Kind {
		if c.A.Kind == analysis.KindTypedef {
			return "typedef \"" + c.Name + "\" redefined under an overlapping condition"
		}
		return c.A.Kind.String() + " \"" + c.Name + "\" defined twice under an overlapping condition"
	}
	return "\"" + c.Name + "\" defined as " + c.A.Kind.String() + " and as " +
		c.B.Kind.String() + " under an overlapping condition"
}

// checkRedefinition reports a block-scope definition that overlaps an
// entry of its own scope: a same-kind redefinition, or the worse
// typedef/object kind clash.
func checkRedefinition(p *analysis.Pass, tab *symtab.Table, s analysis.Sighting) {
	tdCond, objCond, ok := tab.CurrentScope(s.Tok.Text)
	if !ok {
		return
	}
	space := p.Unit.Space
	sameKind, crossKind := objCond, tdCond
	if s.Typedef {
		sameKind, crossKind = tdCond, objCond
	}
	if ov := andDefined(space, crossKind, s.Cond); ov != nil {
		kinds := "an object and a typedef"
		if s.Typedef {
			kinds = "a typedef and an object"
		}
		p.Reportf(*s.Tok, *ov, "%q is %s in the same scope under an overlapping condition", s.Tok.Text, kinds)
	} else if ov := andDefined(space, sameKind, s.Cond); ov != nil {
		p.Reportf(*s.Tok, *ov, "%q redefined in the same scope under an overlapping condition", s.Tok.Text)
	}
}

// andDefined conjoins, treating the zero Cond as false; nil means the
// overlap is infeasible.
func andDefined(s *cond.Space, a, b cond.Cond) *cond.Cond {
	if a == (cond.Cond{}) {
		return nil
	}
	ov := s.And(a, b)
	if s.IsFalse(ov) {
		return nil
	}
	return &ov
}
