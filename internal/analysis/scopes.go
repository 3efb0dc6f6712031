package analysis

import (
	"repro/internal/ast"
	"repro/internal/cond"
	"repro/internal/symtab"
	"repro/internal/token"
)

// Scopes is C's ordinary-identifier scoping over the choice AST, written
// once for the analyses that resolve names: undefuse checks each use
// against the declarations in scope, condredef checks each block-scope
// definition against its own scope, and the link extractor turns uses that
// no local declaration covers into references. It keeps a conditional
// symbol table (internal/symtab, the parser's) and encodes these rules:
//
//   - alternatives conjoin their conditions, and _Error regions are skipped;
//   - each CompoundStatement opens a scope;
//   - a function's name is defined in the enclosing scope, and its
//     parameters in a scope wrapping the body;
//   - a declaration defines its enumerators, then its declarators, each
//     before its own initializer is walked;
//   - member names after . and ->, labels, goto targets, type names, struct
//     and enum specifiers and field designators are not ordinary uses.
//
// Like Walker, it visits a subtree shared by several alternatives once per
// path, under that path's condition: the path condition is the subject of
// the analysis.
type Scopes struct {
	space *cond.Space
	tab   *symtab.Table
	visit func(tab *symtab.Table, s Sighting) bool
}

// Sighting is one name the walk meets: an ordinary use, or a definition
// about to enter the current scope.
type Sighting struct {
	Tok     *token.Token
	Cond    cond.Cond
	Kind    SightingKind
	Decl    *ast.Node // Declarator: the Declaration
	Typedef bool      // Declarator: the Declaration is a typedef
}

// SightingKind says what a sighting is.
type SightingKind uint8

// Sighting kinds: a use, or what defines the name.
const (
	Use SightingKind = iota
	Declarator
	Enumerator
	Parameter
	FunctionName
)

// NewScopes returns a walker whose table holds only an empty file scope.
// visit is the consumer's policy: it sees every sighting with the table as
// it stands, and for a definition its result says whether the name enters
// the table (its result for a use is ignored).
func NewScopes(space *cond.Space, visit func(tab *symtab.Table, s Sighting) bool) *Scopes {
	return &Scopes{space: space, tab: symtab.New(space), visit: visit}
}

// Walk walks n under condition c. body says whether n sits inside a
// function body or an initializer, where identifiers are uses; from a
// unit's root it is false.
func (s *Scopes) Walk(n *ast.Node, c cond.Cond, body bool) {
	s.walk(n, c, place{body: body})
}

// part is the part of a declaration, or of ordinary code, the walk is in.
type part uint8

const (
	code        part = iota // statements, expressions and external declarations
	declarators             // a declaration's declarator list
	specifiers              // a declaration's specifiers
	params                  // a function definition outside its body
)

type place struct {
	part    part
	body    bool      // identifiers are uses; initializers are walked
	decl    *ast.Node // declarators: the Declaration
	typedef bool      // declarators: the Declaration is a typedef
}

// walk is the one recursion of the walker: it resolves choices and error
// regions, then hands each node to the rules of the part it is in.
func (s *Scopes) walk(n *ast.Node, c cond.Cond, at place) {
	if n == nil || s.space.IsFalse(c) || n.IsError() {
		return
	}
	if n.Kind == ast.KindChoice {
		for _, alt := range n.Alts {
			s.walk(alt.Node, s.space.And(c, alt.Cond), at)
		}
		return
	}
	switch at.part {
	case declarators:
		s.declarator(n, c, at)
	case specifiers:
		if n.Label == "Enumerator" && len(n.Children) > 0 && n.Children[0].Kind == ast.KindToken {
			s.define(Sighting{Tok: n.Children[0].Tok, Cond: c, Kind: Enumerator})
		}
		s.children(n, c, at)
	case params:
		s.param(n, c)
	default:
		s.code(n, c, at.body)
	}
}

func (s *Scopes) children(n *ast.Node, c cond.Cond, at place) {
	for _, ch := range n.Children {
		s.walk(ch, c, at)
	}
}

func (s *Scopes) code(n *ast.Node, c cond.Cond, body bool) {
	if n.Kind == ast.KindToken {
		if body && n.Tok.Kind == token.Identifier {
			s.visit(s.tab, Sighting{Tok: n.Tok, Cond: c, Kind: Use})
		}
		return
	}
	switch n.Label {
	case "CompoundStatement":
		s.tab.EnterScope()
		s.children(n, c, place{body: true})
		s.tab.ExitScope()
	case "FunctionDefinition":
		if leaf := declaredLeaf(n); leaf != nil {
			s.define(Sighting{Tok: leaf.Tok, Cond: c, Kind: FunctionName})
		}
		s.tab.EnterScope()
		for _, ch := range n.Children {
			if ch != nil && ch.Label == "CompoundStatement" {
				s.walk(ch, c, place{})
			} else {
				s.walk(ch, c, place{part: params})
			}
		}
		s.tab.ExitScope()
	case "Declaration":
		if len(n.Children) < 2 {
			return
		}
		s.walk(n.Children[0], c, place{part: specifiers})
		s.walk(n.Children[1], c, place{part: declarators, body: body, decl: n,
			typedef: containsLeaf(n.Children[0], "typedef")})
	case "MemberExpr", "ArrowExpr":
		// The member name lives in its struct's namespace; only the object
		// expression holds uses.
		if len(n.Children) > 0 {
			s.walk(n.Children[0], c, place{body: body})
		}
	case "LabelStatement":
		// "name: stmt": the label is not an ordinary identifier.
		if len(n.Children) > 0 {
			s.walk(n.Children[len(n.Children)-1], c, place{body: body})
		}
	case "GotoStatement", "TypeName", "StructSpecifier", "EnumSpecifier", "FieldDesignator":
	default:
		s.children(n, c, place{body: body})
	}
}

func (s *Scopes) declarator(n *ast.Node, c cond.Cond, at place) {
	switch n.Label {
	case "IdentifierDeclarator":
		if len(n.Children) == 1 && n.Children[0].Kind == ast.KindToken {
			s.define(Sighting{Tok: n.Children[0].Tok, Cond: c, Kind: Declarator, Decl: at.decl, Typedef: at.typedef})
		}
	case "InitializedDeclarator":
		if len(n.Children) == 0 {
			return
		}
		// The declarator is in scope inside its own initializer: define
		// first, then walk the initializer for uses.
		s.walk(n.Children[0], c, at)
		if at.body {
			for _, init := range n.Children[1:] {
				s.walk(init, c, place{body: true})
			}
		}
	case "ParameterDeclaration", "StructSpecifier", "EnumSpecifier":
	default:
		s.children(n, c, at)
	}
}

// param defines the parameter names found outside a function's body.
func (s *Scopes) param(n *ast.Node, c cond.Cond) {
	switch n.Label {
	case "ParameterDeclaration":
		// declaredLeaf stops at a ParameterDeclaration, so ask its children.
		for _, ch := range n.Children {
			if leaf := declaredLeaf(ch); leaf != nil {
				s.define(Sighting{Tok: leaf.Tok, Cond: c, Kind: Parameter})
				return
			}
		}
	case "CompoundStatement":
	default:
		s.children(n, c, place{part: params})
	}
}

func (s *Scopes) define(sg Sighting) {
	if !s.visit(s.tab, sg) {
		return
	}
	if sg.Typedef {
		s.tab.DefineTypedef(sg.Tok.Text, sg.Cond)
	} else {
		s.tab.DefineObject(sg.Tok.Text, sg.Cond)
	}
}
