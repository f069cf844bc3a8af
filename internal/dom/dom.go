// Package dom constructs a Document Object Model tree from an ASPEN XML
// parse — the post-processing step the paper describes in §IV-E ("a DOM
// tree representation can be constructed by performing a linear pass
// over the DPDA reports") and leaves as future work. The builder
// consumes the reduction report stream of the compiled XML hDPDA
// together with the lexer's token stream, building the element tree in
// one linear pass, and implements the richer semantic check the paper
// mentions: verifying that opening and closing tag names match.
package dom

import (
	"fmt"
	"strings"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/lang"
	"aspen/internal/lexer"
)

// NodeKind classifies DOM nodes.
type NodeKind uint8

const (
	// ElementNode is an XML element.
	ElementNode NodeKind = iota
	// TextNode is character data (TEXT or CDATA).
	TextNode
	// CommentNode is a comment.
	CommentNode
	// PINode is a processing instruction.
	PINode
)

func (k NodeKind) String() string {
	switch k {
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case PINode:
		return "pi"
	default:
		return "?"
	}
}

// Attr is one attribute.
type Attr struct {
	Name  string
	Value string
}

// Node is a DOM node.
type Node struct {
	Kind     NodeKind
	Name     string // element tag name
	Text     string // text/comment/PI content
	Attrs    []Attr
	Children []*Node
	Parent   *Node
}

// Document is a parsed XML document.
type Document struct {
	Root *Node
	// Prolog holds comments/PIs before the root element.
	Prolog []*Node
	// Trailer holds comments/PIs after the root element.
	Trailer []*Node
	// Elements, Attributes, Characters are SAXCount-compatible tallies.
	Elements   int
	Attributes int
	Characters int
}

// MismatchError reports an open/close tag-name mismatch — the semantic
// check layered above syntactic parsing (paper §II-C, §IV-E).
type MismatchError struct {
	Open, Close string
	Pos         int // token index of the close tag name
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("dom: element <%s> closed by </%s> (token %d)", e.Open, e.Close, e.Pos)
}

// Builder incrementally constructs a Document from an XML parse.
type Builder struct {
	l     *lang.Language
	cm    *compile.Compiled
	lx    *lexer.Lexer
	input []byte
	toks  []lexer.Token

	doc          *Document
	stack        []*Node // open elements
	pendingAttrs []Attr  // Attr reductions awaiting their tag
	err          error
}

// Build parses input with the compiled XML machine and constructs the
// DOM in a single linear pass over the reduction reports.
func Build(l *lang.Language, cm *compile.Compiled, input []byte) (*Document, core.Result, error) {
	lx, err := l.Lexer()
	if err != nil {
		return nil, core.Result{}, err
	}
	toks, _, err := lx.Tokenize(input)
	if err != nil {
		return nil, core.Result{}, err
	}
	syms, err := l.Syms(toks)
	if err != nil {
		return nil, core.Result{}, err
	}
	b := &Builder{
		l: l, cm: cm, lx: lx, input: input, toks: toks,
		doc: &Document{},
	}
	res, err := cm.ParseTokens(syms, core.ExecOptions{
		OnReport: b.onReport,
	})
	if err != nil {
		return nil, res, err
	}
	if b.err != nil {
		return nil, res, b.err
	}
	if !res.Accepted {
		return nil, res, fmt.Errorf("dom: document rejected after %d tokens", res.Consumed)
	}
	if len(b.stack) != 0 {
		return nil, res, fmt.Errorf("dom: %d unclosed elements", len(b.stack))
	}
	return b.doc, res, nil
}

// lexeme returns token i's text.
func (b *Builder) lexeme(i int) string {
	if i < 0 || i >= len(b.toks) {
		return ""
	}
	return b.toks[i].Text(b.input)
}

// attach places a completed node under the current element, or in the
// prolog/trailer when no element is open.
func (b *Builder) attach(n *Node) {
	if len(b.stack) > 0 {
		top := b.stack[len(b.stack)-1]
		n.Parent = top
		top.Children = append(top.Children, n)
		return
	}
	if b.doc.Root == nil {
		b.doc.Prolog = append(b.doc.Prolog, n)
	} else {
		b.doc.Trailer = append(b.doc.Trailer, n)
	}
}

// onReport handles one reduction report. Report.Pos is the number of
// tokens consumed when the reduction fired; because LR reductions occur
// after the lookahead was read, the production's right-hand-side tokens
// end at Pos-2 (the ⊣-extended stream makes Pos-1 the lookahead).
func (b *Builder) onReport(r core.Report) {
	if b.err != nil || r.Code < 0 || int(r.Code) >= len(b.cm.Grammar.Productions) {
		return
	}
	g := b.cm.Grammar
	p := g.Productions[r.Code]
	lhs := g.SymName(p.Lhs)
	// Index of the last token of the reduced production: the machine has
	// consumed Pos tokens including the one-token lookahead (the ⊣
	// appended by ParseTokens keeps this valid at end of input).
	last := r.Pos - 2
	switch lhs {
	case "STag":
		// STag : LT NAME Attrs GT — the NAME is right after the LT.
		n := &Node{Kind: ElementNode, Name: b.tagName(last)}
		b.takeAttrs(n)
		b.place(n)
		b.stack = append(b.stack, n)
		b.doc.Elements++
	case "EmptyElem":
		// EmptyElem : LT NAME Attrs SLASHGT.
		n := &Node{Kind: ElementNode, Name: b.tagName(last)}
		b.takeAttrs(n)
		b.place(n)
		b.doc.Elements++
	case "ETag":
		// ETag : LTSLASH NAME GT.
		name := b.lexeme(last - 1)
		if len(b.stack) == 0 {
			b.err = fmt.Errorf("dom: close tag </%s> with no open element", name)
			return
		}
		top := b.stack[len(b.stack)-1]
		if top.Name != name {
			b.err = &MismatchError{Open: top.Name, Close: name, Pos: last - 1}
			return
		}
		b.stack = b.stack[:len(b.stack)-1]
	case "Attr":
		// Attr : NAME EQ STRING — stash on a pending list consumed by
		// the enclosing STag/EmptyElem (reductions fire before the tag
		// completes, so buffer them).
		val := strings.Trim(b.lexeme(last), `"'`)
		b.pendingAttrs = append(b.pendingAttrs, Attr{Name: b.lexeme(last - 2), Value: val})
		b.doc.Attributes++
	case "Item":
		// Item : Element | TEXT | COMMENT | CDATA | PI — single-token
		// alternatives attach content nodes.
		if len(p.Rhs) == 1 && g.IsTerminal(p.Rhs[0]) {
			b.attachTerminal(g.SymName(p.Rhs[0]), last)
		}
	case "Misc":
		// Misc : COMMENT | PI (prolog/trailer content).
		if len(p.Rhs) == 1 && g.IsTerminal(p.Rhs[0]) {
			b.attachTerminal(g.SymName(p.Rhs[0]), last)
		}
	}
}

func (b *Builder) attachTerminal(term string, tokIdx int) {
	text := b.lexeme(tokIdx)
	switch term {
	case "TEXT":
		b.attach(&Node{Kind: TextNode, Text: text})
		b.doc.Characters += len(text)
	case "CDATA":
		body := strings.TrimSuffix(strings.TrimPrefix(text, "<![CDATA["), "]]>")
		b.attach(&Node{Kind: TextNode, Text: body})
		b.doc.Characters += len(body)
	case "COMMENT":
		body := strings.TrimSuffix(strings.TrimPrefix(text, "<!--"), "-->")
		b.attach(&Node{Kind: CommentNode, Text: body})
	case "PI":
		b.attach(&Node{Kind: PINode, Text: text})
	}
}

// tagName finds the NAME token for a tag reduction ending at token
// `last` by scanning back to the opening LT/LTSLASH.
func (b *Builder) tagName(last int) string {
	for i := last; i >= 0; i-- {
		if name := b.lx.RuleName(b.toks[i].Rule); name == "LT" || name == "LTSLASH" {
			if i+1 <= last {
				return b.lexeme(i + 1)
			}
			return ""
		}
	}
	return ""
}

// place attaches an element node: the first top-level element becomes
// the document root; everything else attaches to the open element.
func (b *Builder) place(n *Node) {
	if len(b.stack) == 0 && b.doc.Root == nil {
		b.doc.Root = n
		return
	}
	b.attach(n)
}

// takeAttrs moves buffered attributes onto n.
func (b *Builder) takeAttrs(n *Node) {
	n.Attrs = b.pendingAttrs
	b.pendingAttrs = nil
}

// Find returns the first descendant element with the given tag name
// (depth-first), or nil.
func (n *Node) Find(name string) *Node {
	if n == nil {
		return nil
	}
	if n.Kind == ElementNode && n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// InnerText concatenates all descendant text.
func (n *Node) InnerText() string {
	var b strings.Builder
	var walk func(x *Node)
	walk = func(x *Node) {
		if x.Kind == TextNode {
			b.WriteString(x.Text)
		}
		for _, c := range x.Children {
			walk(c)
		}
	}
	walk(n)
	return b.String()
}

// String renders the subtree as indented structure for debugging.
func (n *Node) String() string {
	var b strings.Builder
	var walk func(x *Node, depth int)
	walk = func(x *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		switch x.Kind {
		case ElementNode:
			b.WriteString("<" + x.Name)
			for _, a := range x.Attrs {
				fmt.Fprintf(&b, " %s=%q", a.Name, a.Value)
			}
			b.WriteString(">\n")
			for _, c := range x.Children {
				walk(c, depth+1)
			}
		case TextNode:
			fmt.Fprintf(&b, "%q\n", x.Text)
		case CommentNode:
			fmt.Fprintf(&b, "<!--%s-->\n", x.Text)
		case PINode:
			fmt.Fprintf(&b, "%s\n", x.Text)
		}
	}
	walk(n, 0)
	return b.String()
}
