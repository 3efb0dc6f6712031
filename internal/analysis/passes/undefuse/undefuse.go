// Package undefuse reports identifier uses that some configurations reach
// without a declaration: the name is declared under one presence condition
// (say, inside #ifdef CONFIG_X) but used under a weaker one, so the
// configurations in the difference fail to compile. Names never declared at
// all are skipped — every configuration fails identically, which an
// ordinary compiler already reports; the variability bug is the partial
// case, and the witness pins a failing configuration.
package undefuse

import (
	"repro/internal/analysis"
	"repro/internal/cond"
	"repro/internal/symtab"
	"repro/internal/token"
)

// Analyzer is the conditionally-undeclared-use pass.
var Analyzer = &analysis.Analyzer{
	Name: "undefuse",
	Doc:  "report identifier uses undeclared under some configurations that reach them",
	Run:  run,
}

func run(p *analysis.Pass) error {
	if p.Unit.AST == nil {
		return nil
	}
	s := p.Unit.Space
	uses := make(map[useKey]*useSite)
	analysis.NewScopes(s, func(tab *symtab.Table, sg analysis.Sighting) bool {
		if sg.Kind == analysis.Use {
			declared := tab.Declared(sg.Tok.Text)
			missing := s.AndNot(sg.Cond, declared)
			key := useKey{name: sg.Tok.Text, line: sg.Tok.Line, col: sg.Tok.Col}
			if site, ok := uses[key]; ok {
				site.missing = s.Or(site.missing, missing)
				site.declared = s.Or(site.declared, declared)
			} else {
				uses[key] = &useSite{tok: *sg.Tok, missing: missing, declared: declared}
			}
		}
		return true
	}).Walk(p.Unit.AST, s.True(), false)
	for _, u := range uses {
		// Never declared under any configuration containing the use: a
		// uniform error an ordinary compiler reports, not a variability
		// bug. The check is global — hoisting can order an alternative
		// with the use before the alternative with the declaration.
		if s.IsFalse(u.declared) || s.IsFalse(u.missing) {
			continue
		}
		p.Reportf(u.tok, u.missing, "identifier %q is undeclared under some configurations reaching this use", u.tok.Text)
	}
	return nil
}

// useKey merges sightings of one textual use reached through several choice
// alternatives (their conditions are disjoint; the finding is their union).
type useKey struct {
	name      string
	line, col int
}

type useSite struct {
	tok      token.Token
	missing  cond.Cond // union over sightings: path reached without a declaration
	declared cond.Cond // union over sightings: declaration in scope at the use
}
