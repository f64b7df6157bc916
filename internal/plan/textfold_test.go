package plan

import (
	"reflect"
	"strings"
	"testing"

	"webdis/internal/index"
	"webdis/internal/nodequery"
	"webdis/internal/relmodel"
)

// scanOracle is a reference TextOracle built the way the store builds
// its index: tokens of the lower-cased column value, deciding exactly
// the [a-z0-9]{2,} literal class by substring-of-token matching.
type scanOracle struct {
	cols    map[string][]string // col → tokens
	decided int
}

func newScanOracle(db *relmodel.DB) *scanOracle {
	document, err := db.Relation(relmodel.RelDocument)
	if err != nil {
		panic(err)
	}
	doc := document.Tuples[0]
	return &scanOracle{cols: map[string][]string{
		"title": index.Tokenize(strings.ToLower(doc[1])),
		"text":  index.Tokenize(strings.ToLower(doc[2])),
	}}
}

func (o *scanOracle) MatchContains(col, lit string) (bool, bool) {
	toks, ok := o.cols[col]
	if !ok {
		return false, false
	}
	lower := strings.ToLower(lit)
	if len(lower) < 2 {
		return false, false
	}
	for i := 0; i < len(lower); i++ {
		c := lower[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false, false
		}
	}
	o.decided++
	for _, t := range toks {
		if strings.Contains(t, lower) {
			return true, true
		}
	}
	return false, true
}

// TestOracleFoldingDifferential: with the oracle attached, every query's
// answer must stay identical to the plain evaluation — decided-true,
// decided-false (empty stream), undecided fallback, negation, and
// predicates the folder must not touch (Or trees, column operands,
// non-document variables).
func TestOracleFoldingDifferential(t *testing.T) {
	col := nodequery.ColOperand
	lit := nodequery.LitOperand
	dsel := []nodequery.ColRef{{Var: "d", Col: "url"}}
	dvar := []nodequery.VarDecl{{Name: "d", Rel: "document"}}
	queries := []*nodequery.Query{
		{Vars: dvar, Select: dsel, // decided true
			Where: nodequery.Compare(col("d", "text"), nodequery.Contains, lit("marker"))},
		{Vars: dvar, Select: dsel, // decided true, mixed case literal
			Where: nodequery.Compare(col("d", "text"), nodequery.Contains, lit("MarKer"))},
		{Vars: dvar, Select: dsel, // decided false: empty stream
			Where: nodequery.Compare(col("d", "text"), nodequery.Contains, lit("absentterm"))},
		{Vars: dvar, Select: dsel, // not contains, decided
			Where: nodequery.Compare(col("d", "text"), nodequery.NotContains, lit("absentterm"))},
		{Vars: dvar, Select: dsel, // title column
			Where: nodequery.Compare(col("d", "title"), nodequery.Contains, lit("planner"))},
		{Vars: dvar, Select: dsel, // undecided: phrase with a space
			Where: nodequery.Compare(col("d", "text"), nodequery.Contains, lit("section one"))},
		{Vars: dvar, Select: dsel, // undecided: single char
			Where: nodequery.Compare(col("d", "text"), nodequery.Contains, lit("m"))},
		{Vars: dvar, Select: dsel, // conjunction: one folds, one stays
			Where: nodequery.Conj(
				nodequery.Compare(col("d", "text"), nodequery.Contains, lit("marker")),
				nodequery.Compare(col("d", "length"), nodequery.Gt, lit("1")))},
		{Vars: dvar, Select: dsel, // Or tree: folder must not touch it
			Where: &nodequery.Pred{Kind: nodequery.Or, Kids: []*nodequery.Pred{
				nodequery.Compare(col("d", "text"), nodequery.Contains, lit("absentterm")),
				nodequery.Compare(col("d", "title"), nodequery.Contains, lit("planner")),
			}}},
		{ // non-document variable with a text column: not foldable
			Vars:   []nodequery.VarDecl{{Name: "r", Rel: "relinfon"}},
			Where:  nodequery.Compare(col("r", "text"), nodequery.Contains, lit("marker")),
			Select: []nodequery.ColRef{{Var: "r", Col: "url"}},
		},
		{ // column-to-column contains: not foldable
			Vars:   dvar,
			Where:  nodequery.Compare(col("d", "text"), nodequery.Contains, col("d", "title")),
			Select: dsel,
		},
	}
	for _, q := range queries {
		plain := testDB(t)
		want, _, err := Eval(q, plain, nil)
		if err != nil {
			t.Fatalf("plain Eval(%s): %v", q, err)
		}
		withIx := testDB(t)
		withIx.Text = newScanOracle(withIx)
		got, _, err := Eval(q, withIx, nil)
		if err != nil {
			t.Fatalf("oracle Eval(%s): %v", q, err)
		}
		if !reflect.DeepEqual(sorted(got.Rows), sorted(want.Rows)) {
			t.Fatalf("%s:\n oracle %v\n plain  %v", q, sorted(got.Rows), sorted(want.Rows))
		}
	}
}

// TestFoldSkipsChildOnDecidedFalse pins the short-circuit: a decided-
// false conjunct must not pull (scan) the child at all.
func TestFoldSkipsChildOnDecidedFalse(t *testing.T) {
	db := testDB(t)
	oracle := newScanOracle(db)
	db.Text = oracle
	q := &nodequery.Query{
		Vars:   []nodequery.VarDecl{{Name: "d", Rel: "document"}},
		Where:  nodequery.Compare(nodequery.ColOperand("d", "text"), nodequery.Contains, nodequery.LitOperand("absentterm")),
		Select: []nodequery.ColRef{{Var: "d", Col: "url"}},
	}
	_, stats, err := Eval(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scanned != 0 {
		t.Fatalf("decided-false filter scanned %d tuples, want 0", stats.Scanned)
	}
	if oracle.decided == 0 {
		t.Fatal("oracle was never consulted")
	}
}
