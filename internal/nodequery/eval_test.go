package nodequery_test

// The node-query semantics on the paper's lab page, pinned through the
// evaluator every site runs (plan.Eval); plan's tests hold it to the
// nested-loop reference evaluator.

import (
	"strings"
	"testing"

	"webdis/internal/htmlx"
	"webdis/internal/nodequery"
	"webdis/internal/plan"
	"webdis/internal/relmodel"
)

const labPage = `<html><head><title>Database Systems Lab People</title></head>
<body>
<h2>Members</h2>
<a href="http://www.iisc.ernet.in/">IISc</a>
<a href="students.html">Students</a>
<a href="http://csa.iisc.ernet.in/">CSA</a>
CONVENER <b>Jayant Haritsa</b>
<hr>
Last updated 1999.
</body></html>`

func testDB(t *testing.T) *relmodel.DB {
	t.Helper()
	doc, err := htmlx.Parse("http://dsl.serc.iisc.ernet.in/people.html", []byte(labPage))
	if err != nil {
		t.Fatal(err)
	}
	return relmodel.Build(doc)
}

func eval(t *testing.T, q *nodequery.Query, db *relmodel.DB, env map[string]string) (*nodequery.Table, error) {
	t.Helper()
	tbl, _, err := plan.Eval(q, db, env)
	return tbl, err
}

func TestEvalGlobalLinks(t *testing.T) {
	// The paper's Example Query 1 node-query: select a.base, a.href from
	// anchor a where a.ltype = "G".
	q := &nodequery.Query{
		Vars:   []nodequery.VarDecl{{Name: "a", Rel: "anchor"}},
		Where:  nodequery.Compare(nodequery.ColOperand("a", "ltype"), nodequery.Eq, nodequery.LitOperand("G")),
		Select: []nodequery.ColRef{{"a", "base"}, {"a", "href"}},
	}
	tbl, err := eval(t, q, testDB(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	for _, r := range tbl.Rows {
		if r[0] != "http://dsl.serc.iisc.ernet.in/people.html" {
			t.Errorf("base = %q", r[0])
		}
	}
	if tbl.Rows[0][1] != "http://www.iisc.ernet.in/" || tbl.Rows[1][1] != "http://csa.iisc.ernet.in/" {
		t.Errorf("hrefs = %v", tbl.Rows)
	}
	if tbl.Cols[0] != "a.base" || tbl.Cols[1] != "a.href" {
		t.Errorf("cols = %v", tbl.Cols)
	}
}

func TestEvalConvenerRelInfon(t *testing.T) {
	// The paper's Example Query 2 second node-query: document d1, relinfon
	// r such that r.delimiter = "hr" where r.text contains "convener".
	q := &nodequery.Query{
		Vars: []nodequery.VarDecl{
			{Name: "d1", Rel: "document"},
			{Name: "r", Rel: "relinfon",
				Cond: nodequery.Compare(nodequery.ColOperand("r", "delimiter"), nodequery.Eq, nodequery.LitOperand("hr"))},
		},
		Where:  nodequery.Compare(nodequery.ColOperand("r", "text"), nodequery.Contains, nodequery.LitOperand("convener")),
		Select: []nodequery.ColRef{{"d1", "url"}, {"r", "text"}},
	}
	tbl, err := eval(t, q, testDB(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	if tbl.Rows[0][0] != "http://dsl.serc.iisc.ernet.in/people.html" {
		t.Errorf("url = %q", tbl.Rows[0][0])
	}
	if !strings.Contains(tbl.Rows[0][1], "CONVENER Jayant Haritsa") {
		t.Errorf("text = %q", tbl.Rows[0][1])
	}
}

func TestEvalTitleContains(t *testing.T) {
	q := &nodequery.Query{
		Vars:   []nodequery.VarDecl{{Name: "d", Rel: "document"}},
		Where:  nodequery.Compare(nodequery.ColOperand("d", "title"), nodequery.Contains, nodequery.LitOperand("lab")),
		Select: []nodequery.ColRef{{"d", "url"}},
	}
	tbl, err := eval(t, q, testDB(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatalf("contains should be case-insensitive: %v", tbl.Rows)
	}
}

func TestEvalEmptyResultIsDeadEnd(t *testing.T) {
	q := &nodequery.Query{
		Vars:   []nodequery.VarDecl{{Name: "d", Rel: "document"}},
		Where:  nodequery.Compare(nodequery.ColOperand("d", "title"), nodequery.Contains, nodequery.LitOperand("no such phrase")),
		Select: []nodequery.ColRef{{"d", "url"}},
	}
	tbl, err := eval(t, q, testDB(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Empty() {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	var nilTable *nodequery.Table
	if !nilTable.Empty() {
		t.Error("nil table should be empty")
	}
}

func TestEvalNumericComparison(t *testing.T) {
	q := &nodequery.Query{
		Vars:   []nodequery.VarDecl{{Name: "d", Rel: "document"}},
		Where:  nodequery.Compare(nodequery.ColOperand("d", "length"), nodequery.Gt, nodequery.LitOperand("100")),
		Select: []nodequery.ColRef{{"d", "url"}},
	}
	tbl, err := eval(t, q, testDB(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatal("document is longer than 100 bytes; numeric compare failed")
	}
	// "99" < "100" numerically but not lexicographically.
	q.Where = nodequery.Compare(nodequery.LitOperand("99"), nodequery.Lt, nodequery.LitOperand("100"))
	tbl, err = eval(t, q, testDB(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatal("99 < 100 should hold numerically")
	}
}

func TestEvalBooleanOperators(t *testing.T) {
	or := &nodequery.Pred{Kind: nodequery.Or, Kids: []*nodequery.Pred{
		nodequery.Compare(nodequery.ColOperand("a", "ltype"), nodequery.Eq, nodequery.LitOperand("G")),
		nodequery.Compare(nodequery.ColOperand("a", "ltype"), nodequery.Eq, nodequery.LitOperand("L")),
	}}
	q := &nodequery.Query{
		Vars:   []nodequery.VarDecl{{Name: "a", Rel: "anchor"}},
		Where:  or,
		Select: []nodequery.ColRef{{"a", "href"}},
	}
	tbl, err := eval(t, q, testDB(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("G|L rows = %v", tbl.Rows)
	}
	q.Where = &nodequery.Pred{Kind: nodequery.Not, Kids: []*nodequery.Pred{or}}
	tbl, err = eval(t, q, testDB(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 0 {
		t.Fatalf("not(G|L) rows = %v", tbl.Rows)
	}
}

func TestEvalCrossProductJoin(t *testing.T) {
	// anchor × relinfon with a join condition on the shared document URL.
	q := &nodequery.Query{
		Vars: []nodequery.VarDecl{
			{Name: "a", Rel: "anchor"},
			{Name: "r", Rel: "relinfon"},
		},
		Where: nodequery.Conj(
			nodequery.Compare(nodequery.ColOperand("a", "ltype"), nodequery.Eq, nodequery.LitOperand("G")),
			nodequery.Compare(nodequery.ColOperand("r", "delimiter"), nodequery.Eq, nodequery.LitOperand("b")),
		),
		Select: []nodequery.ColRef{{"a", "href"}, {"r", "text"}},
	}
	tbl, err := eval(t, q, testDB(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	for _, r := range tbl.Rows {
		if r[1] != "Jayant Haritsa" {
			t.Errorf("row = %v", r)
		}
	}
}

func TestEvalEnvOuterReferences(t *testing.T) {
	// A correlated predicate: the node's title must contain the value of
	// the upstream document's title, supplied via the environment.
	q := &nodequery.Query{
		Vars:   []nodequery.VarDecl{{Name: "d1", Rel: "document"}},
		Where:  nodequery.Compare(nodequery.ColOperand("d1", "title"), nodequery.Contains, nodequery.ColOperand("d0", "title")),
		Select: []nodequery.ColRef{{Var: "d1", Col: "url"}},
		Outer:  []nodequery.ColRef{{Var: "d0", Col: "title"}},
	}
	db := testDB(t) // title "Database Systems Lab People"
	tbl, err := eval(t, q, db, map[string]string{"d0.title": "Systems Lab"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	tbl, err = eval(t, q, db, map[string]string{"d0.title": "Compilers"})
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Empty() {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	// A missing environment value is an error, not a silent false.
	if _, err := eval(t, q, db, nil); err == nil {
		t.Fatal("missing outer value should fail")
	}
	// An outer reference not declared in Outer still fails validation.
	q2 := &nodequery.Query{
		Vars:   []nodequery.VarDecl{{Name: "d1", Rel: "document"}},
		Where:  nodequery.Compare(nodequery.ColOperand("d1", "title"), nodequery.Contains, nodequery.ColOperand("d9", "title")),
		Select: []nodequery.ColRef{{Var: "d1", Col: "url"}},
	}
	if err := q2.Validate(); err == nil {
		t.Fatal("undeclared outer variable should fail validation")
	}
}
