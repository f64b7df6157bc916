package pre

import (
	"fmt"
	"sort"
	"strings"
)

// DFA is a deterministic finite automaton over the three-letter link
// alphabet, compiled from a PRE by CompileDFA. State 0 is the start state.
// Missing transitions go to an implicit dead state.
type DFA struct {
	// Trans[s][i] is the successor of state s on Links[i], or -1.
	Trans [][3]int
	// Accept[s] reports whether state s is accepting.
	Accept []bool
}

// maxDFAStates bounds subset construction; PREs in queries are tiny, so the
// bound exists only to keep adversarial inputs from allocating unboundedly.
const maxDFAStates = 1 << 14

func linkIndex(l Link) int {
	switch l {
	case Interior:
		return 0
	case Local:
		return 1
	case Global:
		return 2
	}
	return -1
}

// CompileDFA compiles e into a DFA by the derivative method: states are
// canonical derivative strings, transitions are Derive. The construction
// terminates because bounded repetitions only shrink and the simplifying
// constructors keep the derivative set finite.
func CompileDFA(e Expr) (*DFA, error) {
	index := map[string]int{}
	var exprs []Expr
	intern := func(x Expr) int {
		s := x.String()
		if id, ok := index[s]; ok {
			return id
		}
		id := len(exprs)
		index[s] = id
		exprs = append(exprs, x)
		return id
	}
	intern(e)
	d := &DFA{}
	for state := 0; state < len(exprs); state++ {
		if len(exprs) > maxDFAStates {
			return nil, fmt.Errorf("pre: DFA for %q exceeds %d states", e, maxDFAStates)
		}
		cur := exprs[state]
		var row [3]int
		for i, l := range Links {
			next := Derive(cur, l)
			if IsNone(next) {
				row[i] = -1
				continue
			}
			row[i] = intern(next)
		}
		d.Trans = append(d.Trans, row)
		d.Accept = append(d.Accept, Nullable(cur))
	}
	return d, nil
}

// Step returns the successor state on link l, or -1 for the dead state.
func (d *DFA) Step(state int, l Link) int {
	if state < 0 {
		return -1
	}
	return d.Trans[state][linkIndex(l)]
}

// Accepts reports whether d accepts the given link path.
func (d *DFA) Accepts(path []Link) bool {
	s := 0
	for _, l := range path {
		s = d.Step(s, l)
		if s < 0 {
			return false
		}
	}
	return d.Accept[s]
}

// Covers reports whether the language of super contains the language of
// sub: every path sub matches, super matches too. It is the Node-query Log
// Table's one comparison (Section 3.1.1, generalised from the paper's
// star-bound shapes to languages). A walk that exceeds maxDFAStates pairs
// answers false, which only costs the log table a recomputation.
func Covers(super, sub Expr) bool {
	ok, err := Contains(super, sub)
	return ok && err == nil
}

// Contains is Covers with the walk's bound reported as an error.
func Contains(super, sub Expr) (bool, error) {
	return CoversBy(super, sub, Expr.String, Nullable, func(e Expr, l Link) (Expr, bool) {
		d := Derive(e, l)
		return d, !IsNone(d)
	})
}

// CoversBy is the containment walk behind Covers, over any deterministic
// automaton on the links: key names a state, nullable tells whether it
// accepts, and next steps it over a link, false when no path goes on (a
// PRE's derivative is ∅ exactly then). It searches the pairs of states
// one path leads super and sub to for a path sub accepts and super does
// not; a pair of equally named states needs no search below it. A
// finite automaton, such as a PRE's derivatives (see CompileDFA), ends
// the search.
func CoversBy[S any, K comparable](super, sub S, key func(S) K, nullable func(S) bool, next func(S, Link) (S, bool)) (bool, error) {
	type pair struct{ a, b S }
	seen := map[[2]K]bool{}
	queue := []pair{{super, sub}}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if nullable(p.b) && !nullable(p.a) {
			return false, nil
		}
		for _, l := range Links {
			b, ok := next(p.b, l)
			if !ok {
				continue // sub is dead along this path; nothing to witness
			}
			a, ok := next(p.a, l)
			if !ok {
				return false, nil // sub goes on where super is dead
			}
			k := [2]K{key(a), key(b)}
			if k[0] == k[1] || seen[k] {
				continue
			}
			if len(seen) == maxDFAStates {
				return false, fmt.Errorf("pre: containment walk exceeds %d state pairs", maxDFAStates)
			}
			seen[k] = true
			queue = append(queue, pair{a, b})
		}
	}
	return true, nil
}

// Dump renders the DFA in a compact human-readable form, for debugging.
func (d *DFA) Dump() string {
	var b strings.Builder
	for s := range d.Trans {
		mark := " "
		if d.Accept[s] {
			mark = "*"
		}
		var parts []string
		for i, l := range Links {
			if t := d.Trans[s][i]; t >= 0 {
				parts = append(parts, fmt.Sprintf("%s→%d", l, t))
			}
		}
		sort.Strings(parts)
		fmt.Fprintf(&b, "%s%d: %s\n", mark, s, strings.Join(parts, " "))
	}
	return b.String()
}
