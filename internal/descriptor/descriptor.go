// Package descriptor models the semi-structured, human-readable file
// descriptors of §III-B: XML documents such as the bibliographic records of
// the paper's Figure 1. A descriptor is a tree of named elements; leaves
// carry text values. Descriptors are parsed from XML, compared
// structurally, and serialized to a canonical form so that equivalent
// descriptors hash to the same DHT key (the paper's footnote 1 requires a
// "unique normalized format").
package descriptor

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// ErrEmptyDocument is returned when the XML input holds no root element.
var ErrEmptyDocument = errors.New("descriptor: empty document")

// Element is a node in a descriptor tree. A leaf element has a Value and no
// Children; an interior element has Children and an empty Value (mixed
// content is not part of the paper's model and is rejected by Parse).
type Element struct {
	Name     string
	Value    string
	Children []*Element
}

// NewLeaf builds a leaf element.
func NewLeaf(name, value string) *Element {
	return &Element{Name: name, Value: value}
}

// NewNode builds an interior element.
func NewNode(name string, children ...*Element) *Element {
	return &Element{Name: name, Children: children}
}

// IsLeaf reports whether the element carries a text value.
func (e *Element) IsLeaf() bool { return len(e.Children) == 0 }

// Child returns the first child with the given name, or nil.
func (e *Element) Child(name string) *Element {
	for _, c := range e.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Path descends through the named children (e.g. "author", "first") and
// returns the element reached, or nil if any step is missing.
func (e *Element) Path(names ...string) *Element {
	cur := e
	for _, name := range names {
		cur = cur.Child(name)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// Clone returns a deep copy of the element tree.
func (e *Element) Clone() *Element {
	out := &Element{Name: e.Name, Value: e.Value}
	if len(e.Children) > 0 {
		out.Children = make([]*Element, len(e.Children))
		for i, c := range e.Children {
			out.Children[i] = c.Clone()
		}
	}
	return out
}

// Normalize sorts children recursively by (Name, Value, subtree form) so
// that structurally equal descriptors serialize identically.
func (e *Element) Normalize() {
	for _, c := range e.Children {
		c.Normalize()
	}
	slices.SortStableFunc(e.Children, func(a, b *Element) int {
		if c := strings.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		if c := strings.Compare(a.Value, b.Value); c != 0 {
			return c
		}
		return strings.Compare(a.canonical(), b.canonical())
	})
}

// canonical returns a compact unambiguous textual form used for ordering
// and hashing: name{child,child}  or  name=value for leaves.
func (e *Element) canonical() string {
	var sb strings.Builder
	e.writeCanonical(&sb)
	return sb.String()
}

func (e *Element) writeCanonical(sb *strings.Builder) {
	sb.WriteString(e.Name)
	if e.IsLeaf() {
		sb.WriteByte('=')
		sb.WriteString(e.Value)
		return
	}
	sb.WriteByte('{')
	for i, c := range e.Children {
		if i > 0 {
			sb.WriteByte(',')
		}
		c.writeCanonical(sb)
	}
	sb.WriteByte('}')
}

// Descriptor is a complete file descriptor: a rooted element tree.
type Descriptor struct {
	Root *Element
}

// New wraps a root element as a descriptor and normalizes it.
func New(root *Element) Descriptor {
	r := root.Clone()
	r.Normalize()
	return Descriptor{Root: r}
}

// Parse reads one XML document into a normalized descriptor.
func Parse(r io.Reader) (Descriptor, error) {
	dec := xml.NewDecoder(r)
	var stack []*Element
	var root *Element
	var text strings.Builder
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return Descriptor{}, fmt.Errorf("descriptor: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := &Element{Name: t.Name.Local}
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				if strings.TrimSpace(text.String()) != "" {
					return Descriptor{}, fmt.Errorf("descriptor: mixed content in <%s>", parent.Name)
				}
				parent.Children = append(parent.Children, el)
			} else if root == nil {
				root = el
			} else {
				return Descriptor{}, errors.New("descriptor: multiple root elements")
			}
			stack = append(stack, el)
			text.Reset()
		case xml.CharData:
			text.Write(t)
		case xml.EndElement:
			if len(stack) == 0 {
				return Descriptor{}, errors.New("descriptor: unbalanced end element")
			}
			el := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v := strings.TrimSpace(text.String()); v != "" {
				if len(el.Children) > 0 {
					return Descriptor{}, fmt.Errorf("descriptor: mixed content in <%s>", el.Name)
				}
				el.Value = v
			}
			text.Reset()
		}
	}
	if root == nil {
		return Descriptor{}, ErrEmptyDocument
	}
	root.Normalize()
	return Descriptor{Root: root}, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (Descriptor, error) {
	return Parse(strings.NewReader(s))
}

// String returns the canonical compact form; two descriptors are equivalent
// iff their Strings are equal.
func (d Descriptor) String() string {
	if d.Root == nil {
		return ""
	}
	return d.Root.canonical()
}

// XML renders the descriptor as indented XML (for display and dbgen output).
func (d Descriptor) XML() string {
	var sb strings.Builder
	if d.Root != nil {
		writeXML(&sb, d.Root, 0)
	}
	return sb.String()
}

func writeXML(sb *strings.Builder, e *Element, depth int) {
	indent := strings.Repeat("  ", depth)
	if e.IsLeaf() {
		fmt.Fprintf(sb, "%s<%s>%s</%s>\n", indent, e.Name, escape(e.Value), e.Name)
		return
	}
	fmt.Fprintf(sb, "%s<%s>\n", indent, e.Name)
	for _, c := range e.Children {
		writeXML(sb, c, depth+1)
	}
	fmt.Fprintf(sb, "%s</%s>\n", indent, e.Name)
}

func escape(s string) string {
	var sb strings.Builder
	if err := xml.EscapeText(&sb, []byte(s)); err != nil {
		return s
	}
	return sb.String()
}

// Equal reports structural equality of two descriptors (after the
// normalization performed at construction time).
func (d Descriptor) Equal(other Descriptor) bool {
	return d.String() == other.String()
}
