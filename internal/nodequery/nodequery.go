// Package nodequery defines the node-queries of the WEBDIS model: the
// locally evaluable piece of a web-query that a query-server runs against
// the virtual relations of a single node (paper Section 2.3). A web-query
// Q = S p1 q1 p2 q2 … pn qn carries one node-query q_k per traversal stage;
// this package represents the q_k and their result tables, and validates
// them against the relmodel schema. Package plan evaluates them.
//
// The types here are deliberately plain data (no interfaces, no function
// values) so that node-queries serialize directly with encoding/gob when a
// clone of the web-query is forwarded to another site — the Go analog of
// the Java object serialization the original system used.
package nodequery

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"webdis/internal/relmodel"
)

// ColRef names an attribute of a declared relation variable, e.g. d0.title.
type ColRef struct {
	Var, Col string
}

func (c ColRef) String() string { return c.Var + "." + c.Col }

// Operand is one side of a comparison: either a column reference or a
// string literal.
type Operand struct {
	IsCol bool
	Col   ColRef
	Lit   string
}

// ColOperand returns an Operand referencing v.c.
func ColOperand(v, c string) Operand { return Operand{IsCol: true, Col: ColRef{v, c}} }

// LitOperand returns a literal string Operand.
func LitOperand(s string) Operand { return Operand{Lit: s} }

func (o Operand) String() string {
	if o.IsCol {
		return o.Col.String()
	}
	return strconv.Quote(o.Lit)
}

// PredKind discriminates predicate tree nodes.
type PredKind int

// Predicate node kinds.
const (
	True PredKind = iota // no condition
	And
	Or
	Not
	Cmp
)

// CmpOp is a comparison operator. String comparisons are used unless both
// operands are numeric, in which case the comparison is numeric; Contains
// is a case-insensitive substring test, matching the paper's Example Query
// 2 where the condition `title contains "lab"` selects the "Laboratories"
// page.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
	Contains
	NotContains
)

var cmpNames = map[CmpOp]string{
	Eq: "=", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=",
	Contains: "contains", NotContains: "not contains",
}

func (o CmpOp) String() string { return cmpNames[o] }

// Pred is a boolean predicate tree over the virtual relations. The zero
// value is the always-true predicate.
type Pred struct {
	Kind        PredKind
	Kids        []*Pred // And, Or (n-ary), Not (unary)
	Left, Right Operand // Cmp
	Op          CmpOp   // Cmp
}

// Conj returns the conjunction of the given predicates, treating nils as
// true and flattening where possible.
func Conj(ps ...*Pred) *Pred {
	var kids []*Pred
	for _, p := range ps {
		if p == nil || p.Kind == True {
			continue
		}
		if p.Kind == And {
			kids = append(kids, p.Kids...)
			continue
		}
		kids = append(kids, p)
	}
	switch len(kids) {
	case 0:
		return &Pred{Kind: True}
	case 1:
		return kids[0]
	}
	return &Pred{Kind: And, Kids: kids}
}

// Compare returns a comparison predicate left op right.
func Compare(left Operand, op CmpOp, right Operand) *Pred {
	return &Pred{Kind: Cmp, Left: left, Op: op, Right: right}
}

func (p *Pred) String() string {
	if p == nil {
		return "true"
	}
	switch p.Kind {
	case True:
		return "true"
	case And, Or:
		word := " and "
		if p.Kind == Or {
			word = " or "
		}
		parts := make([]string, len(p.Kids))
		for i, k := range p.Kids {
			parts[i] = k.String()
		}
		return "(" + strings.Join(parts, word) + ")"
	case Not:
		return "not " + p.Kids[0].String()
	case Cmp:
		return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Right)
	}
	return "?"
}

// VarDecl declares a relation variable of the node-query's from clause,
// e.g. `relinfon r such that r.delimiter = "hr"`. Cond is the non-path
// such-that predicate, or nil.
type VarDecl struct {
	Name string
	Rel  string // document, anchor or relinfon
	Cond *Pred
}

// Query is one node-query: variable declarations over the virtual
// relations, an optional where predicate, and the projection list (the
// slice of the user's select clause that refers to this stage's variables).
//
// Outer lists column references to *earlier stages'* document variables
// that this node-query's predicates use — the correlated-stage extension
// of the paper's footnote 2 ("node-queries that refer to multiple
// documents"). Their values are not in this node's virtual relations;
// they travel with the query clone and are supplied to plan.Eval as an
// environment.
type Query struct {
	Vars   []VarDecl
	Where  *Pred
	Select []ColRef
	Outer  []ColRef
}

func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("select ")
	for i, c := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
	}
	b.WriteString(" from ")
	for i, v := range q.Vars {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", v.Rel, v.Name)
		if v.Cond != nil && v.Cond.Kind != True {
			fmt.Fprintf(&b, " such that %s", v.Cond)
		}
	}
	if q.Where != nil && q.Where.Kind != True {
		fmt.Fprintf(&b, " where %s", q.Where)
	}
	return b.String()
}

// Validate checks that variable names are unique, relations exist, and
// every column reference in conditions and the select list resolves.
func (q *Query) Validate() error {
	rels := make(map[string]string)
	for _, v := range q.Vars {
		if v.Name == "" {
			return fmt.Errorf("nodequery: empty variable name")
		}
		if _, dup := rels[v.Name]; dup {
			return fmt.Errorf("nodequery: duplicate variable %q", v.Name)
		}
		cols, ok := relmodel.Schemas[strings.ToLower(v.Rel)]
		if !ok {
			return fmt.Errorf("nodequery: unknown relation %q for variable %q", v.Rel, v.Name)
		}
		_ = cols
		rels[v.Name] = strings.ToLower(v.Rel)
	}
	outer := make(map[string]bool, len(q.Outer))
	for _, c := range q.Outer {
		outer[c.String()] = true
	}
	check := func(c ColRef) error {
		rel, ok := rels[c.Var]
		if !ok {
			if outer[c.String()] {
				return nil // supplied by the clone's environment
			}
			return fmt.Errorf("nodequery: undeclared variable %q", c.Var)
		}
		for _, col := range relmodel.Schemas[rel] {
			if col == c.Col {
				return nil
			}
		}
		return fmt.Errorf("nodequery: relation %q has no attribute %q", rel, c.Col)
	}
	var walk func(p *Pred) error
	walk = func(p *Pred) error {
		if p == nil {
			return nil
		}
		switch p.Kind {
		case Cmp:
			if p.Left.IsCol {
				if err := check(p.Left.Col); err != nil {
					return err
				}
			}
			if p.Right.IsCol {
				if err := check(p.Right.Col); err != nil {
					return err
				}
			}
		case And, Or, Not:
			for _, k := range p.Kids {
				if err := walk(k); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, v := range q.Vars {
		if err := walk(v.Cond); err != nil {
			return err
		}
	}
	if err := walk(q.Where); err != nil {
		return err
	}
	for _, c := range q.Select {
		if err := check(c); err != nil {
			return err
		}
	}
	return nil
}

// Table is the result of evaluating a node-query at one node: the
// projected column names and the distinct result rows, in deterministic
// order.
type Table struct {
	Cols []string
	Rows [][]string
}

// Empty reports whether the table has no rows — the paper's "node contains
// no answer" condition that turns a node into a dead end.
func (t *Table) Empty() bool { return t == nil || len(t.Rows) == 0 }

// SortRows orders rows lexicographically; result tables from different
// sites arrive in arrival order, so deterministic display and tests sort.
func SortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
