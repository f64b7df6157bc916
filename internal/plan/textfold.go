package plan

import (
	"strings"

	"webdis/internal/nodequery"
	"webdis/internal/relmodel"
)

// Text-index constant folding. A node's DB carries one document tuple,
// so a contains-predicate over a document variable's text or title
// column has one truth value for the whole evaluation. When the DB
// carries a TextOracle (the persistent store's posting-list index),
// Filter.Open asks it once per such conjunct instead of scanning the
// text per row: a decided-true conjunct is left out of the node's
// residual, a decided-false one short-circuits the filter to an empty
// stream without pulling the child at all. Undecided conjuncts (literal
// outside the index's exact class, non-document variable, column-to-
// column comparison) stay in the residual and full-scan as before, so a
// nil or declining oracle is behaviourally invisible.

// docScanVars collects the variables bound by document Scans in the
// subtree — the only variables whose text/title a per-document oracle
// can speak for.
func docScanVars(op Op) map[string]bool {
	out := make(map[string]bool)
	var walk func(Op)
	walk = func(o Op) {
		if sc, ok := o.(*Scan); ok && sc.Rel == relmodel.RelDocument {
			out[sc.Var] = true
		}
		for _, k := range o.Kids() {
			walk(k)
		}
	}
	walk(op)
	return out
}

// foldOne decides one conjunct from the text oracle: whether it is true,
// and whether the oracle could say.
func foldOne(c *nodequery.Pred, docVars map[string]bool, ix relmodel.TextOracle) (value, decided bool) {
	if c.Kind != nodequery.Cmp || (c.Op != nodequery.Contains && c.Op != nodequery.NotContains) {
		return false, false
	}
	if !c.Left.IsCol || c.Right.IsCol || !docVars[c.Left.Col.Var] {
		return false, false
	}
	col := strings.ToLower(c.Left.Col.Col)
	if col != "text" && col != "title" {
		return false, false
	}
	hit, decided := ix.MatchContains(col, c.Right.Lit)
	if !decided {
		return false, false
	}
	if c.Op == nodequery.NotContains {
		hit = !hit
	}
	return hit, true
}
