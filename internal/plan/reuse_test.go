package plan

import (
	"reflect"
	"testing"

	"webdis/internal/htmlx"
	"webdis/internal/nodequery"
	"webdis/internal/relmodel"
	"webdis/internal/store"
	"webdis/internal/webgraph"
)

// reuseDBs returns node databases of every kind a site evaluates over, in
// an order that flips between them: the test page in RAM, the same page
// with the reference text oracle, then the pages of a generated site,
// alternately from a disk store (whose text index decides contains-
// conjuncts) and parsed in RAM (no oracle). About half the generated
// pages carry the marker.
func reuseDBs(t *testing.T) []*relmodel.DB {
	t.Helper()
	withIx := testDB(t)
	withIx.Text = newScanOracle(withIx)
	dbs := []*relmodel.DB{testDB(t), withIx}

	web := webgraph.Tree(webgraph.TreeOpts{Fanout: 3, Depth: 2, PagesPerSite: 13, MarkerFrac: 0.5, FillerWords: 40, Seed: 3})
	site := web.Hosts()[0]
	urls := web.URLsAt(site)
	get := func(u string) ([]byte, error) {
		html, _ := web.HTML(u)
		return html, nil
	}
	st, err := store.Build(t.TempDir(), site, urls, get, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for i, u := range urls {
		if i%2 == 0 {
			db, err := st.DB(u)
			if err != nil {
				t.Fatal(err)
			}
			dbs = append(dbs, db)
			continue
		}
		html, _ := web.HTML(u)
		doc, err := htmlx.Parse(u, html)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, relmodel.Build(doc))
	}
	return dbs
}

func docURL(t *testing.T, db *relmodel.DB) string {
	t.Helper()
	document, err := db.Relation(relmodel.RelDocument)
	if err != nil {
		t.Fatal(err)
	}
	return document.Tuples[0][0]
}

// TestTreeReuseMatchesFreshEval runs one compiled tree serially at every
// node and requires exactly what a fresh Eval per node returns: columns,
// rows in order, statistics and errors. Between nodes the text oracle
// comes and goes and decides differently, so a filter's residual and its
// never flag change; one query is a hash join with a folded filter under
// its left input, and one is a correlated stage bound to a different
// environment at every node — at one node to none, which must fail
// without spoiling the next.
func TestTreeReuseMatchesFreshEval(t *testing.T) {
	dbs := reuseDBs(t)
	col, lit := nodequery.ColOperand, nodequery.LitOperand
	outer := nodequery.ColRef{Var: "d0", Col: "url"}
	outerOp := nodequery.Operand{IsCol: true, Col: outer}
	dvar := []nodequery.VarDecl{{Name: "d", Rel: "document"}}
	queries := []struct {
		name       string
		q          *nodequery.Query
		correlated bool
	}{
		{name: "contains", q: &nodequery.Query{Vars: dvar,
			Where:  nodequery.Compare(col("d", "text"), nodequery.Contains, lit(webgraph.Marker)),
			Select: []nodequery.ColRef{{Var: "d", Col: "url"}}}},
		{name: "contains and length", q: &nodequery.Query{Vars: dvar,
			Where: nodequery.Conj(
				nodequery.Compare(col("d", "text"), nodequery.NotContains, lit("absentterm")),
				nodequery.Compare(col("d", "length"), nodequery.Gt, lit("300"))),
			Select: []nodequery.ColRef{{Var: "d", Col: "url"}, {Var: "d", Col: "length"}}}},
		{name: "hash join", q: &nodequery.Query{
			Vars: []nodequery.VarDecl{{Name: "d", Rel: "document"}, {Name: "a", Rel: "anchor"}},
			Where: nodequery.Conj(
				nodequery.Compare(col("d", "text"), nodequery.Contains, lit(webgraph.Marker)),
				nodequery.Compare(col("a", "base"), nodequery.Eq, col("d", "url"))),
			Select: []nodequery.ColRef{{Var: "d", Col: "url"}, {Var: "a", Col: "href"}}}},
		{name: "nest loop", q: &nodequery.Query{
			Vars:   []nodequery.VarDecl{{Name: "a", Rel: "anchor"}, {Name: "b", Rel: "anchor"}},
			Where:  nodequery.Compare(col("a", "label"), nodequery.Lt, col("b", "label")),
			Select: []nodequery.ColRef{{Var: "a", Col: "label"}, {Var: "b", Col: "label"}}}},
		{name: "correlated", correlated: true, q: &nodequery.Query{
			Vars: []nodequery.VarDecl{{Name: "a", Rel: "anchor"}},
			Where: nodequery.Conj(
				nodequery.Compare(col("a", "base"), nodequery.Ne, outerOp),
				nodequery.Compare(col("a", "ltype"), nodequery.Ne, lit("I"))),
			Select: []nodequery.ColRef{{Var: "a", Col: "href"}, outer},
			Outer:  []nodequery.ColRef{outer}}},
	}
	for _, c := range queries {
		tree, err := Compile(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rows := 0
		for i, db := range dbs {
			var env map[string]string
			if c.correlated && i != 3 {
				// The node's own URL (every anchor filtered out) on even
				// nodes, the next node's on odd ones.
				env = map[string]string{"d0.url": docURL(t, dbs[(i+i%2)%len(dbs)])}
			}
			got, gotStats, gotErr := tree.Eval(db, env)
			want, wantStats, wantErr := Eval(c.q, db, env)
			if (gotErr == nil) != (wantErr == nil) || c.correlated && i == 3 && gotErr == nil {
				t.Fatalf("%s, node %d: reused tree err = %v, fresh err = %v", c.name, i, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) || gotStats != wantStats {
				t.Fatalf("%s, node %d:\n reused %v %+v\n fresh  %v %+v", c.name, i, got, gotStats, want, wantStats)
			}
			rows += len(got.Rows)
		}
		if rows == 0 {
			t.Errorf("%s: no node answered; the comparison proves little", c.name)
		}
	}
}

// TestTreeEvalAllocs pins what a compiled tree costs per node on the
// commonest stage, a one-variable document query with a contains: the
// result table, its row list and the one projected row — nothing to
// plan, resolve or bind.
func TestTreeEvalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	q := &nodequery.Query{
		Vars:   []nodequery.VarDecl{{Name: "d", Rel: "document"}},
		Where:  nodequery.Compare(nodequery.ColOperand("d", "text"), nodequery.Contains, nodequery.LitOperand("marker")),
		Select: []nodequery.ColRef{{Var: "d", Col: "url"}},
	}
	db := testDB(t)
	tree, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	eval := func() {
		if tbl, _, err := tree.Eval(db, nil); err != nil || len(tbl.Rows) != 1 {
			t.Fatalf("rows = %v, err = %v", tbl, err)
		}
	}
	eval() // the first node sizes the tree's reusable state
	if n := testing.AllocsPerRun(100, eval); n > 3 {
		t.Errorf("compiled evaluation: %.0f allocations, want <= 3", n)
	}
}
