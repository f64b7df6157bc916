// Package pre implements Path Regular Expressions (PREs), the traversal
// language of the WEBDIS system (Gupta, Haritsa, Ramanath: "Distributed
// Query Processing on the Web", ICDE 2000).
//
// A PRE describes a set of hyperlink paths over the Web graph. Paths are
// built from the link symbols
//
//	I  interior link (destination inside the same web resource)
//	L  local link    (destination on the same server)
//	G  global link   (destination on a different server)
//	N  null link     (the zero-length path; the resource itself)
//
// combined with concatenation (· or .), alternation (|) and repetition
// (* for unbounded, *k for at most k repetitions). For example
//
//	N | G·(L*4)
//
// denotes the zero-length path together with every path that starts with a
// global link and continues with up to four local links.
//
// The package provides the operations the WEBDIS engine needs:
//
//   - Parse / String: the concrete syntax.
//   - Nullable: does the PRE "contain the null link", i.e. does it match the
//     zero-length path? (Figure 3, line 4 of the paper: this is the test
//     that decides whether the node-query is evaluated at the current node.)
//   - First: the set of link types on which the PRE can advance.
//   - Derive: the Brzozowski derivative — the "modifiedPRE" of Figure 4,
//     line 15, carried by a clone after traversing one link.
//   - Covers: language containment by a walk over pairs of derivatives,
//     the one comparison of the Node-query Log Table (Section 3.1.1).
package pre

import (
	"fmt"
	"sort"
	"strings"
)

// Link identifies a hyperlink category. The null link is not a Link value:
// it is represented by the nullable (epsilon) expression Eps.
type Link byte

// The three traversable link categories of the paper's web model.
const (
	Interior Link = 'I'
	Local    Link = 'L'
	Global   Link = 'G'
)

// Links lists all traversable link categories in canonical order.
var Links = []Link{Interior, Local, Global}

// Valid reports whether l is one of the three traversable link categories.
func (l Link) Valid() bool {
	return l == Interior || l == Local || l == Global
}

// String returns the category's letter. The three categories return
// constants: the ANCHOR relation holds one per hyperlink.
func (l Link) String() string {
	switch l {
	case Interior:
		return "I"
	case Local:
		return "L"
	case Global:
		return "G"
	}
	return string(byte(l))
}

// Unbounded is the Max value of a repetition node with no upper bound (A*).
const Unbounded = -1

// Expr is a parsed path regular expression. Expressions are immutable; all
// operations return new values. Two expressions denote the same syntactic
// PRE exactly when their String forms are equal (the name a state has in
// the Current Hosts Table and on the wire).
type Expr interface {
	fmt.Stringer
	isExpr()
	// prec is the printing precedence: 0 alt, 1 cat, 2 atom/rep.
	prec() int
}

type (
	epsExpr  struct{}
	noneExpr struct{}
	symExpr  struct{ l Link }
	catExpr  struct{ es []Expr }
	altExpr  struct{ es []Expr }
	repExpr  struct {
		e   Expr
		max int // Unbounded or >= 1
	}
)

func (epsExpr) isExpr()  {}
func (noneExpr) isExpr() {}
func (symExpr) isExpr()  {}
func (catExpr) isExpr()  {}
func (altExpr) isExpr()  {}
func (repExpr) isExpr()  {}

func (epsExpr) prec() int  { return 2 }
func (noneExpr) prec() int { return 2 }
func (symExpr) prec() int  { return 2 }
func (catExpr) prec() int  { return 1 }
func (altExpr) prec() int  { return 0 }
func (repExpr) prec() int  { return 2 }

// Eps returns the null-link expression N, matching only the zero-length path.
func Eps() Expr { return epsExpr{} }

// None returns the empty expression matching no path at all. It never
// appears in user queries; it arises as a derivative dead end.
func None() Expr { return noneExpr{} }

// Sym returns the expression matching a single link of category l.
func Sym(l Link) Expr { return symExpr{l} }

// Cat returns the concatenation of es, applying the usual simplifications
// (flattening, unit elimination, annihilation by None).
func Cat(es ...Expr) Expr {
	var out []Expr
	for _, e := range es {
		switch v := e.(type) {
		case epsExpr:
			// identity
		case noneExpr:
			return None()
		case catExpr:
			out = append(out, v.es...)
		default:
			out = append(out, e)
		}
	}
	switch len(out) {
	case 0:
		return Eps()
	case 1:
		return out[0]
	}
	return catExpr{out}
}

// Alt returns the alternation of es, flattening nested alternations,
// removing None branches and syntactic duplicates. Branch order is
// preserved, so Alt is deterministic but not commutative-canonical:
// language-equal states can differ in text, which is why the log table
// compares states by Covers.
func Alt(es ...Expr) Expr {
	var out []Expr
	seen := make(map[string]bool)
	for _, e := range es {
		switch v := e.(type) {
		case noneExpr:
			// identity
		case altExpr:
			for _, sub := range v.es {
				if s := sub.String(); !seen[s] {
					seen[s] = true
					out = append(out, sub)
				}
			}
		default:
			if s := e.String(); !seen[s] {
				seen[s] = true
				out = append(out, e)
			}
		}
	}
	switch len(out) {
	case 0:
		return None()
	case 1:
		return out[0]
	}
	return altExpr{out}
}

// Star returns the unbounded repetition e*.
func Star(e Expr) Expr { return Rep(e, Unbounded) }

// Rep returns the bounded repetition e*max, matching zero through max
// occurrences of e. Rep(e, Unbounded) is e*. Rep(e, 0) is the null link.
func Rep(e Expr, max int) Expr {
	if max == 0 {
		return Eps()
	}
	switch v := e.(type) {
	case epsExpr:
		return Eps()
	case noneExpr:
		return Eps() // zero repetitions of the impossible path
	case repExpr:
		if v.max == Unbounded || max == Unbounded {
			return repExpr{v.e, Unbounded}
		}
		return repExpr{v.e, v.max * max}
	}
	return repExpr{e, max}
}

// String renders the expression in the paper's concrete syntax, using '·'
// for concatenation, '|' for alternation, '*'/'*k' for repetition and 'N'
// for the null link. Parse(e.String()) always round-trips.
func (epsExpr) String() string  { return "N" }
func (noneExpr) String() string { return "∅" }
func (e symExpr) String() string {
	return e.l.String()
}

func paren(e Expr, min int) string {
	s := e.String()
	if e.prec() < min {
		return "(" + s + ")"
	}
	return s
}

func (e catExpr) String() string {
	parts := make([]string, len(e.es))
	for i, sub := range e.es {
		parts[i] = paren(sub, 2)
	}
	return strings.Join(parts, "·")
}

func (e altExpr) String() string {
	parts := make([]string, len(e.es))
	for i, sub := range e.es {
		parts[i] = paren(sub, 1)
	}
	return strings.Join(parts, "|")
}

func (e repExpr) String() string {
	body := paren(e.e, 2)
	if _, ok := e.e.(repExpr); ok {
		// nested repetitions always need grouping: L*2*3 is ambiguous
		body = "(" + body + ")"
	}
	if e.max == Unbounded {
		return body + "*"
	}
	return fmt.Sprintf("%s*%d", body, e.max)
}

// Equal reports whether a and b are the same syntactic PRE.
func Equal(a, b Expr) bool { return a.String() == b.String() }

// IsNone reports whether e is the empty expression matching no paths.
func IsNone(e Expr) bool {
	_, ok := e.(noneExpr)
	return ok
}

// Nullable reports whether e matches the zero-length path — in the paper's
// terms, whether the PRE "contains the null link". A WEBDIS node evaluates
// its node-query exactly when the clone's remaining PRE is nullable.
func Nullable(e Expr) bool {
	switch v := e.(type) {
	case epsExpr:
		return true
	case noneExpr:
		return false
	case symExpr:
		return false
	case catExpr:
		for _, sub := range v.es {
			if !Nullable(sub) {
				return false
			}
		}
		return true
	case altExpr:
		for _, sub := range v.es {
			if Nullable(sub) {
				return true
			}
		}
		return false
	case repExpr:
		return true
	}
	panic("pre: unknown expression node")
}

// First returns the set of link categories on which e can advance, in
// canonical I, L, G order. An empty result means the PRE cannot traverse
// any further link (it is exhausted or dead).
func First(e Expr) []Link {
	set := make(map[Link]bool)
	first(e, set)
	var out []Link
	for _, l := range Links {
		if set[l] {
			out = append(out, l)
		}
	}
	return out
}

func first(e Expr, set map[Link]bool) {
	switch v := e.(type) {
	case epsExpr, noneExpr:
	case symExpr:
		set[v.l] = true
	case catExpr:
		for _, sub := range v.es {
			first(sub, set)
			if !Nullable(sub) {
				return
			}
		}
	case altExpr:
		for _, sub := range v.es {
			first(sub, set)
		}
	case repExpr:
		first(v.e, set)
	}
}

// Derive returns the Brzozowski derivative of e with respect to link l: the
// PRE matching exactly the suffixes of e-paths that begin with l. This is
// the "modifiedPRE" a WEBDIS clone carries after traversing a link of
// category l (Figure 4, line 15). Deriving preserves the syntactic star
// bounds (L*4 becomes L*3, never an unrolled L·L·L), so a state's text
// stays as short as the query's.
func Derive(e Expr, l Link) Expr {
	switch v := e.(type) {
	case epsExpr, noneExpr:
		return None()
	case symExpr:
		if v.l == l {
			return Eps()
		}
		return None()
	case catExpr:
		head, tail := v.es[0], Cat(v.es[1:]...)
		d := Cat(Derive(head, l), tail)
		if Nullable(head) {
			return Alt(d, Derive(tail, l))
		}
		return d
	case altExpr:
		ds := make([]Expr, len(v.es))
		for i, sub := range v.es {
			ds[i] = Derive(sub, l)
		}
		return Alt(ds...)
	case repExpr:
		rest := Unbounded
		if v.max != Unbounded {
			rest = v.max - 1
		}
		return Cat(Derive(v.e, l), Rep(v.e, rest))
	}
	panic("pre: unknown expression node")
}

// MaxLen returns the length of the longest path matched by e, or Unbounded
// if e matches arbitrarily long paths. The centralized (data-shipping)
// baseline uses this to bound its breadth-first frontier.
func MaxLen(e Expr) int {
	switch v := e.(type) {
	case epsExpr:
		return 0
	case noneExpr:
		return 0
	case symExpr:
		return 1
	case catExpr:
		total := 0
		for _, sub := range v.es {
			n := MaxLen(sub)
			if n == Unbounded {
				return Unbounded
			}
			total += n
		}
		return total
	case altExpr:
		max := 0
		for _, sub := range v.es {
			n := MaxLen(sub)
			if n == Unbounded {
				return Unbounded
			}
			if n > max {
				max = n
			}
		}
		return max
	case repExpr:
		n := MaxLen(v.e)
		if n == 0 {
			return 0
		}
		if n == Unbounded || v.max == Unbounded {
			return Unbounded
		}
		return n * v.max
	}
	panic("pre: unknown expression node")
}

// MinLen returns the length of the shortest path matched by e. For None it
// returns 0 by convention (there is no path at all).
func MinLen(e Expr) int {
	switch v := e.(type) {
	case epsExpr, noneExpr, repExpr:
		return 0
	case symExpr:
		return 1
	case catExpr:
		total := 0
		for _, sub := range v.es {
			total += MinLen(sub)
		}
		return total
	case altExpr:
		min := -1
		for _, sub := range v.es {
			n := MinLen(sub)
			if min == -1 || n < min {
				min = n
			}
		}
		if min == -1 {
			return 0
		}
		return min
	}
	panic("pre: unknown expression node")
}

// Matches reports whether the given link path is in the language of e.
func Matches(e Expr, path []Link) bool {
	cur := e
	for _, l := range path {
		cur = Derive(cur, l)
		if IsNone(cur) {
			return false
		}
	}
	return Nullable(cur)
}

// Enumerate returns every path of length at most maxLen matched by e, in
// order of increasing length (ties broken lexicographically by I < L < G
// per the Links order). It is intended for tests and for the centralized
// baseline on bounded PREs.
func Enumerate(e Expr, maxLen int) [][]Link {
	type item struct {
		path []Link
		rem  Expr
	}
	var out [][]Link
	frontier := []item{{nil, e}}
	for depth := 0; depth <= maxLen; depth++ {
		var next []item
		for _, it := range frontier {
			if Nullable(it.rem) {
				out = append(out, it.path)
			}
			if depth == maxLen {
				continue
			}
			for _, l := range First(it.rem) {
				d := Derive(it.rem, l)
				if IsNone(d) {
					continue
				}
				p := make([]Link, len(it.path)+1)
				copy(p, it.path)
				p[len(it.path)] = l
				next = append(next, item{p, d})
			}
		}
		frontier = next
	}
	// Deduplicate paths produced through different derivative branches.
	seen := make(map[string]bool)
	var uniq [][]Link
	for _, p := range out {
		k := pathKey(p)
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, p)
		}
	}
	sort.SliceStable(uniq, func(i, j int) bool {
		if len(uniq[i]) != len(uniq[j]) {
			return len(uniq[i]) < len(uniq[j])
		}
		return pathKey(uniq[i]) < pathKey(uniq[j])
	})
	return uniq
}

func pathKey(p []Link) string {
	var b strings.Builder
	order := map[Link]byte{Interior: 'a', Local: 'b', Global: 'c'}
	for _, l := range p {
		b.WriteByte(order[l])
	}
	return b.String()
}
