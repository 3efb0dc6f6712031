package ast

import "repro/internal/token"

// Builder batch-allocates AST nodes. A parse produces hundreds of thousands
// of small nodes that live and die together with the resulting tree, so the
// parser allocates them from slabs instead of individually: one Go
// allocation covers slabSize nodes (and likewise child-pointer cells).
// Leaves copy no token: they point at the caller's.
//
// Cells are bump-allocated and never reused, so the produced nodes are
// indistinguishable from individually-allocated ones — except that a
// retained node keeps its whole slab alive. Callers that keep small
// subtrees of huge trees for a long time should deep-copy them; the ones in
// this repository consume the tree and drop it.
//
// The zero Builder is ready to use. Child slices are handed out with exact
// capacity, so appending to a node's Children later copies out of the slab
// rather than overwriting a neighbor's cells.
type Builder struct {
	nodes []Node
	kids  []*Node
}

const slabSize = 256

func (b *Builder) node() *Node {
	if len(b.nodes) == 0 {
		b.nodes = make([]Node, slabSize)
	}
	n := &b.nodes[0]
	b.nodes = b.nodes[1:]
	return n
}

// kidSlice returns an empty child slice with exact capacity n.
func (b *Builder) kidSlice(n int) []*Node {
	if n > len(b.kids) {
		size := slabSize
		if n > size {
			size = n
		}
		b.kids = make([]*Node, size)
	}
	s := b.kids[0:0:n]
	b.kids = b.kids[n:]
	return s
}

// Leaf is Builder-backed ast.Leaf, except that the leaf points at t
// instead of a copy. The parser's tokens are the preprocessor's output,
// which no stage writes after it is produced, and nothing writes through a
// leaf's Tok.
func (b *Builder) Leaf(t *token.Token) *Node {
	n := b.node()
	n.Kind = KindToken
	n.Tok = t
	return n
}

// New is Builder-backed ast.New: an interior node, dropping nil children.
func (b *Builder) New(label string, children ...*Node) *Node {
	count := 0
	for _, c := range children {
		if c != nil {
			count++
		}
	}
	kept := b.kidSlice(count)
	for _, c := range children {
		if c != nil {
			kept = append(kept, c)
		}
	}
	n := b.node()
	n.Kind = KindNode
	n.Label = label
	n.Children = kept
	return n
}

// List is Builder-backed ast.List: same-label list children are spliced.
func (b *Builder) List(label string, children ...*Node) *Node {
	count := 0
	for _, c := range children {
		if c == nil {
			continue
		}
		if c.Kind == KindList && c.Label == label {
			count += len(c.Children)
			continue
		}
		count++
	}
	kept := b.kidSlice(count)
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
	n := b.node()
	n.Kind = KindList
	n.Label = label
	n.Children = kept
	return n
}

// NewChoice is Builder-backed ast.NewChoice; the alts slice is retained.
func (b *Builder) NewChoice(alts ...Choice) *Node {
	n := b.node()
	n.Kind = KindChoice
	n.Alts = alts
	return n
}
