// Package ast defines the abstract syntax tree produced by the
// configuration-preserving parser.
//
// Following paper §5.1, most AST construction is automatic: each reduction
// creates a generic node named after its production with the semantic
// values of the right-hand side as children. Grammar annotations refine
// this: layout omits punctuation, passthrough reuses a sole child,
// list flattens left-recursive repetition, and complete marks the
// productions at which subparsers may merge. Merging combines the merged
// subparsers' semantic values under a *static choice node* that records
// each alternative's presence condition.
package ast

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/cond"
	"repro/internal/token"
)

// Kind discriminates node shapes.
type Kind uint8

// Node kinds.
const (
	KindToken  Kind = iota // leaf wrapping one token
	KindNode               // interior node named after a production
	KindList               // flattened repetition
	KindChoice             // static choice between configurations
)

// Node is one AST node. Exactly one of the payload fields is meaningful,
// per Kind.
type Node struct {
	Kind     Kind
	mark     uint32       // Counts' visit stamp; fills padding after Kind
	Label    string       // production label (KindNode, KindList)
	Tok      *token.Token // KindToken
	Children []*Node      // KindNode, KindList
	Alts     []Choice     // KindChoice
}

// Choice is one alternative of a static choice node.
type Choice struct {
	Cond cond.Cond
	Node *Node // may be nil: the construct is absent under Cond
}

// ErrorLabel marks error nodes produced when a stage degrades under a
// tripped resource budget: the unit's AST is partial, and the region whose
// parse was abandoned is represented by an Error node (typically under a
// choice alternative whose condition is the offending presence condition).
const ErrorLabel = "_Error"

// Error builds a degradation error node carrying a diagnostic message as
// its sole token child.
func Error(msg string) *Node {
	return &Node{Kind: KindNode, Label: ErrorLabel, Children: []*Node{
		{Kind: KindToken, Tok: &token.Token{Kind: token.Other, Text: msg}},
	}}
}

// IsError reports whether n is a degradation error node.
func (n *Node) IsError() bool {
	return n != nil && n.Kind == KindNode && n.Label == ErrorLabel
}

// Leaf wraps a copy of a token as a leaf node.
func Leaf(t token.Token) *Node {
	return &Node{Kind: KindToken, Tok: &t}
}

// New creates an interior node, dropping nil children.
func New(label string, children ...*Node) *Node {
	kept := make([]*Node, 0, len(children))
	for _, c := range children {
		if c != nil {
			kept = append(kept, c)
		}
	}
	return &Node{Kind: KindNode, Label: label, Children: kept}
}

// List creates (or extends) a flattened list node: when the first non-nil
// child is itself a list with the same label, its elements are spliced.
func List(label string, children ...*Node) *Node {
	kept := make([]*Node, 0, len(children))
	for _, c := range children {
		if c == nil {
			continue
		}
		if c.Kind == KindList && c.Label == label {
			kept = append(kept, c.Children...)
			continue
		}
		kept = append(kept, c)
	}
	return &Node{Kind: KindList, Label: label, Children: kept}
}

// NewChoice builds a static choice node over the alternatives. Alternatives
// that are themselves choice nodes stay nested: their inner conditions are
// only meaningful underneath the outer alternative's condition, so
// flattening them into the same level would break the alternatives' mutual
// exclusion. (Projection conjoins conditions as it descends.)
func NewChoice(alts ...Choice) *Node {
	return &Node{Kind: KindChoice, Alts: alts}
}

// Text returns the token text for leaves and "" otherwise.
func (n *Node) Text() string {
	if n != nil && n.Kind == KindToken {
		return n.Tok.Text
	}
	return ""
}

// Count returns the number of nodes in the tree (shared subtrees counted
// once).
func (n *Node) Count() int {
	nodes, _ := n.Counts()
	return nodes
}

// CountChoices returns the number of static choice nodes in the tree.
func (n *Node) CountChoices() int {
	_, choices := n.Counts()
	return choices
}

// countEpoch hands each Counts call its own visit stamp.
var countEpoch atomic.Uint32

// Counts returns Count and CountChoices from one walk of the tree.
//
// Shared subtrees are recognized by a visit stamp written into each node
// instead of a visited set, so the walk allocates nothing. The stamp is
// the contract: Counts must not run concurrently with itself (or with
// Count/CountChoices) on one tree, nor on two trees that share nodes.
// Its production caller, harness.ResultOf, runs it on the goroutine that
// parsed the tree, before the tree is published. A node last stamped
// exactly 2^32 calls earlier would be skipped; no tree lives that long.
func (n *Node) Counts() (nodes, choices int) {
	epoch := countEpoch.Add(1)
	if epoch == 0 { // 0 is a never-counted node's stamp
		epoch = countEpoch.Add(1)
	}
	n.count(epoch, &nodes, &choices)
	return nodes, choices
}

func (n *Node) count(epoch uint32, nodes, choices *int) {
	if n == nil || n.mark == epoch {
		return
	}
	n.mark = epoch
	*nodes++
	if n.Kind == KindChoice {
		*choices++
	}
	for _, c := range n.Children {
		c.count(epoch, nodes, choices)
	}
	for _, a := range n.Alts {
		a.Node.count(epoch, nodes, choices)
	}
}

// Walk visits every node in preorder; the visitor returns false to prune.
func Walk(n *Node, visit func(*Node) bool) {
	if n == nil || !visit(n) {
		return
	}
	for _, c := range n.Children {
		Walk(c, visit)
	}
	for _, a := range n.Alts {
		Walk(a.Node, visit)
	}
}

// Project resolves all static choices under a configuration, returning the
// single-configuration tree.
func Project(s *cond.Space, n *Node, assign map[string]bool) *Node {
	if n == nil {
		return nil
	}
	switch n.Kind {
	case KindToken:
		return n
	case KindChoice:
		for _, a := range n.Alts {
			if s.Eval(a.Cond, assign) {
				return Project(s, a.Node, assign)
			}
		}
		return nil
	default:
		out := &Node{Kind: n.Kind, Label: n.Label}
		for _, c := range n.Children {
			if p := Project(s, c, assign); p != nil {
				out.Children = append(out.Children, p)
			}
		}
		return out
	}
}

// Tokens returns the leaf tokens of a choice-free tree in order.
func (n *Node) Tokens() []token.Token {
	var out []token.Token
	Walk(n, func(m *Node) bool {
		if m.Kind == KindToken {
			out = append(out, *m.Tok)
		}
		return true
	})
	return out
}

// String renders the tree as a compact s-expression (conditions rendered
// through the provided space; pass nil to omit them).
func (n *Node) String() string { return n.render(nil, 0) }

// StringWithConds renders the tree including presence conditions.
func (n *Node) StringWithConds(s *cond.Space) string { return n.render(s, 0) }

func (n *Node) render(s *cond.Space, depth int) string {
	if n == nil {
		return "·"
	}
	indent := strings.Repeat("  ", depth)
	switch n.Kind {
	case KindToken:
		return fmt.Sprintf("%s%q", indent, n.Tok.Text)
	case KindChoice:
		var b strings.Builder
		b.WriteString(indent + "(Choice")
		for _, a := range n.Alts {
			b.WriteString("\n" + indent + "  [")
			if s != nil {
				b.WriteString(s.String(a.Cond))
			} else {
				b.WriteString("…")
			}
			b.WriteString("]\n")
			b.WriteString(a.Node.render(s, depth+2))
		}
		b.WriteString(")")
		return b.String()
	default:
		var b strings.Builder
		b.WriteString(indent + "(" + n.Label)
		for _, c := range n.Children {
			b.WriteString("\n" + c.render(s, depth+1))
		}
		b.WriteString(")")
		return b.String()
	}
}

// Find returns all nodes with the given label.
func Find(n *Node, label string) []*Node {
	var out []*Node
	Walk(n, func(m *Node) bool {
		if m.Label == label {
			out = append(out, m)
		}
		return true
	})
	return out
}
