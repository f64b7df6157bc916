package plan

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"webdis/internal/htmlx"
	"webdis/internal/nodequery"
	"webdis/internal/relmodel"
)

// testPage has enough structure to exercise every operator: several
// anchors (G and L types, duplicate labels for join fan-out), numeric
// text, and an hr-delimited relinfon.
const testPage = `<html><head><title>Planner Test Page 42</title></head>
<body>
<a href="http://a.example/">alpha</a>
<a href="http://b.example/">beta</a>
<a href="local.html">alpha</a>
<a href="other.html">gamma</a>
Section one mentions budget 17 and MARKER tokens.
<hr>
Section two repeats MARKER once more, total 3.
</body></html>`

func testDB(t testing.TB) *relmodel.DB {
	t.Helper()
	doc, err := htmlx.Parse("http://site.example/page.html", []byte(testPage))
	if err != nil {
		t.Fatal(err)
	}
	return relmodel.Build(doc)
}

func sorted(rows [][]string) [][]string {
	out := append([][]string{}, rows...)
	nodequery.SortRows(out)
	return out
}

// runBoth evaluates one node-query through the operator pipeline and
// through the reference nested-loop evaluator and requires identical
// columns and (sorted) row sets.
func runBoth(t *testing.T, q *nodequery.Query, db *relmodel.DB, env map[string]string) (*nodequery.Table, EvalStats) {
	t.Helper()
	got, stats, err := Eval(q, db, env)
	if err != nil {
		t.Fatalf("plan.Eval(%s): %v", q, err)
	}
	want, err := evalEnv(q, db, env)
	if err != nil {
		t.Fatalf("evalEnv(%s): %v", q, err)
	}
	if !reflect.DeepEqual(got.Cols, want.Cols) {
		t.Fatalf("%s: cols = %v, want %v", q, got.Cols, want.Cols)
	}
	if !reflect.DeepEqual(sorted(got.Rows), sorted(want.Rows)) {
		t.Fatalf("%s:\n pipeline %v\n nested   %v", q, sorted(got.Rows), sorted(want.Rows))
	}
	if stats.Emitted != int64(len(got.Rows)) {
		t.Fatalf("%s: Emitted = %d, want %d", q, stats.Emitted, len(got.Rows))
	}
	return got, stats
}

func TestEvalMatchesNodequery(t *testing.T) {
	db := testDB(t)
	col := nodequery.ColOperand
	lit := nodequery.LitOperand
	queries := []*nodequery.Query{
		{ // selection pushdown on one variable
			Vars:   []nodequery.VarDecl{{Name: "a", Rel: "anchor"}},
			Where:  nodequery.Compare(col("a", "ltype"), nodequery.Eq, lit("G")),
			Select: []nodequery.ColRef{{Var: "a", Col: "base"}, {Var: "a", Col: "href"}},
		},
		{ // contains is case-insensitive
			Vars:   []nodequery.VarDecl{{Name: "d", Rel: "document"}},
			Where:  nodequery.Compare(col("d", "title"), nodequery.Contains, lit("planner")),
			Select: []nodequery.ColRef{{Var: "d", Col: "url"}},
		},
		{ // numeric comparison on length
			Vars:   []nodequery.VarDecl{{Name: "d", Rel: "document"}},
			Where:  nodequery.Compare(col("d", "length"), nodequery.Gt, lit("10")),
			Select: []nodequery.ColRef{{Var: "d", Col: "url"}, {Var: "d", Col: "length"}},
		},
		{ // two-variable equi-join -> HashJoin (duplicate labels fan out)
			Vars: []nodequery.VarDecl{
				{Name: "a", Rel: "anchor"},
				{Name: "b", Rel: "anchor"},
			},
			Where: nodequery.Conj(
				nodequery.Compare(col("a", "label"), nodequery.Eq, col("b", "label")),
				nodequery.Compare(col("a", "ltype"), nodequery.Eq, lit("G")),
			),
			Select: []nodequery.ColRef{{Var: "a", Col: "href"}, {Var: "b", Col: "href"}},
		},
		{ // cross product with residual non-equi predicate -> NestLoop
			Vars: []nodequery.VarDecl{
				{Name: "a", Rel: "anchor"},
				{Name: "b", Rel: "anchor"},
			},
			Where:  nodequery.Compare(col("a", "label"), nodequery.Lt, col("b", "label")),
			Select: []nodequery.ColRef{{Var: "a", Col: "label"}, {Var: "b", Col: "label"}},
		},
		{ // such-that condition joins the conjunct pool
			Vars: []nodequery.VarDecl{
				{Name: "d", Rel: "document"},
				{Name: "r", Rel: "relinfon",
					Cond: nodequery.Compare(col("r", "delimiter"), nodequery.Eq, lit("hr"))},
			},
			Where:  nodequery.Compare(col("r", "text"), nodequery.Contains, lit("marker")),
			Select: []nodequery.ColRef{{Var: "d", Col: "url"}, {Var: "r", Col: "delimiter"}},
		},
		{ // three-way join: document x anchor x relinfon
			Vars: []nodequery.VarDecl{
				{Name: "d", Rel: "document"},
				{Name: "a", Rel: "anchor"},
				{Name: "r", Rel: "relinfon"},
			},
			Where: nodequery.Conj(
				nodequery.Compare(col("a", "base"), nodequery.Eq, col("d", "url")),
				nodequery.Compare(col("r", "url"), nodequery.Eq, col("d", "url")),
			),
			Select: []nodequery.ColRef{{Var: "a", Col: "href"}, {Var: "r", Col: "delimiter"}},
		},
	}
	for _, q := range queries {
		runBoth(t, q, db, nil)
	}
}

func TestEvalOuterEnv(t *testing.T) {
	db := testDB(t)
	q := &nodequery.Query{
		Vars: []nodequery.VarDecl{{Name: "a", Rel: "anchor"}},
		Where: nodequery.Compare(
			nodequery.ColOperand("a", "base"),
			nodequery.Ne,
			nodequery.Operand{IsCol: true, Col: nodequery.ColRef{Var: "d0", Col: "url"}},
		),
		Select: []nodequery.ColRef{{Var: "a", Col: "href"}},
		Outer:  []nodequery.ColRef{{Var: "d0", Col: "url"}},
	}
	env := map[string]string{"d0.url": "http://elsewhere.example/"}
	tbl, _ := runBoth(t, q, db, env)
	if len(tbl.Rows) == 0 {
		t.Fatal("outer-env query produced no rows")
	}
	// Missing env value must error, not silently match.
	if _, _, err := Eval(q, db, nil); err == nil {
		t.Fatal("Eval with missing outer env value: want error")
	}
}

// TestEvalRandomized sweeps generated single- and two-variable queries
// across operators and columns, checking pipeline/nested-loop agreement
// on every one.
func TestEvalRandomized(t *testing.T) {
	db := testDB(t)
	rng := rand.New(rand.NewSource(7))
	rels := []struct {
		rel  string
		cols []string
	}{
		{"document", []string{"url", "title", "text", "length"}},
		{"anchor", []string{"label", "base", "href", "ltype"}},
		{"relinfon", []string{"delimiter", "url", "text", "length"}},
	}
	ops := []nodequery.CmpOp{nodequery.Eq, nodequery.Ne, nodequery.Lt,
		nodequery.Le, nodequery.Gt, nodequery.Ge, nodequery.Contains}
	lits := []string{"", "alpha", "G", "17", "3", "marker", "http://a.example/"}
	for i := 0; i < 300; i++ {
		r1 := rels[rng.Intn(len(rels))]
		q := &nodequery.Query{
			Vars: []nodequery.VarDecl{{Name: "x", Rel: r1.rel}},
		}
		c1 := r1.cols[rng.Intn(len(r1.cols))]
		q.Select = []nodequery.ColRef{{Var: "x", Col: c1}}
		right := nodequery.LitOperand(lits[rng.Intn(len(lits))])
		if rng.Intn(2) == 0 { // sometimes a second variable + join
			r2 := rels[rng.Intn(len(rels))]
			c2 := r2.cols[rng.Intn(len(r2.cols))]
			q.Vars = append(q.Vars, nodequery.VarDecl{Name: "y", Rel: r2.rel})
			q.Select = append(q.Select, nodequery.ColRef{Var: "y", Col: c2})
			if rng.Intn(2) == 0 {
				right = nodequery.ColOperand("y", c2)
			}
		}
		q.Where = nodequery.Compare(
			nodequery.ColOperand("x", c1), ops[rng.Intn(len(ops))], right)
		runBoth(t, q, db, nil)
	}
}

func TestEvalStatsScanned(t *testing.T) {
	db := testDB(t)
	q := &nodequery.Query{
		Vars:   []nodequery.VarDecl{{Name: "a", Rel: "anchor"}},
		Where:  nodequery.Compare(nodequery.ColOperand("a", "ltype"), nodequery.Eq, nodequery.LitOperand("G")),
		Select: []nodequery.ColRef{{Var: "a", Col: "href"}},
	}
	_, stats, err := Eval(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	anchors, err := db.Relation("anchor")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scanned != int64(len(anchors.Tuples)) {
		t.Fatalf("Scanned = %d, want %d", stats.Scanned, len(anchors.Tuples))
	}
	if stats.Emitted >= stats.Scanned {
		t.Fatalf("filter should emit fewer than scanned: %+v", stats)
	}
}

// ---- aggregation accumulator ----

func specCountSum() *nodequery.OutputSpec {
	return &nodequery.OutputSpec{
		Cols: []nodequery.OutputCol{
			{Ref: nodequery.ColRef{Var: "a", Col: "ltype"}},
			{Agg: nodequery.AggCount, Star: true},
			{Agg: nodequery.AggSum, Ref: nodequery.ColRef{Var: "a", Col: "n"}},
			{Agg: nodequery.AggMin, Ref: nodequery.ColRef{Var: "a", Col: "n"}},
			{Agg: nodequery.AggMax, Ref: nodequery.ColRef{Var: "a", Col: "n"}},
		},
		GroupBy: []nodequery.ColRef{{Var: "a", Col: "ltype"}},
	}
}

func randomContribs(rng *rand.Rand, n int) [][][]string {
	var contribs [][][]string
	for i := 0; i < n; i++ {
		rows := make([][]string, rng.Intn(6))
		for j := range rows {
			rows[j] = []string{
				[]string{"G", "L", "I"}[rng.Intn(3)],
				fmt.Sprint(rng.Intn(50)),
			}
		}
		contribs = append(contribs, rows)
	}
	return contribs
}

// TestAccPartialEquivalence is the pushdown soundness property: folding
// every contribution raw at the user-site must equal folding each
// contribution to partial state remotely (ApplyFrag-style) and
// combining the partials — for any split of the rows.
func TestAccPartialEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cols := []string{"a.ltype", "a.n"}
	for trial := 0; trial < 100; trial++ {
		spec := specCountSum()
		contribs := randomContribs(rng, 1+rng.Intn(5))

		raw := NewAcc(spec)
		mixed := NewAcc(spec)
		for i, rows := range contribs {
			raw.AddRaw(cols, rows, nil)
			if i%2 == 0 { // half the sites ran the pushdown, half did not
				site := NewAcc(spec)
				site.AddRaw(cols, rows, nil)
				_, prows := site.PartialTable()
				mixed.AddPartial(prows)
			} else {
				mixed.AddRaw(cols, rows, nil)
			}
		}
		rc, rr := raw.FinalTable()
		mc, mr := mixed.FinalTable()
		if !reflect.DeepEqual(rc, mc) || !reflect.DeepEqual(rr, mr) {
			t.Fatalf("trial %d: raw %v %v != mixed %v %v", trial, rc, rr, mc, mr)
		}
	}
}

func TestAccScalarZeroState(t *testing.T) {
	spec := &nodequery.OutputSpec{
		Cols: []nodequery.OutputCol{{Agg: nodequery.AggCount, Star: true}},
	}
	cols, rows := NewAcc(spec).FinalTable()
	if len(rows) != 1 || rows[0][0] != "0" {
		t.Fatalf("empty scalar count: cols=%v rows=%v", cols, rows)
	}
}

func TestAccGroupKeyFromEnv(t *testing.T) {
	// Group key exported by an earlier stage: resolves via env, not the
	// table columns.
	spec := &nodequery.OutputSpec{
		Cols: []nodequery.OutputCol{
			{Ref: nodequery.ColRef{Var: "d", Col: "url"}},
			{Agg: nodequery.AggCount, Star: true},
		},
		GroupBy: []nodequery.ColRef{{Var: "d", Col: "url"}},
	}
	acc := NewAcc(spec)
	acc.AddRaw([]string{"a.href"}, [][]string{{"x"}, {"y"}}, map[string]string{"d.url": "http://s1/"})
	acc.AddRaw([]string{"a.href"}, [][]string{{"z"}}, map[string]string{"d.url": "http://s2/"})
	_, rows := acc.FinalTable()
	want := [][]string{{"http://s1/", "2"}, {"http://s2/", "1"}}
	if !reflect.DeepEqual(sorted(rows), want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
}

func TestAccOrderAndLimit(t *testing.T) {
	spec := specCountSum()
	spec.OrderBy = []nodequery.OrderKey{
		{Col: nodequery.OutputCol{Agg: nodequery.AggCount, Star: true}, Desc: true},
	}
	spec.Limit = 2
	acc := NewAcc(spec)
	acc.AddRaw([]string{"a.ltype", "a.n"}, [][]string{
		{"G", "1"}, {"G", "2"}, {"G", "3"},
		{"L", "5"}, {"L", "6"},
		{"I", "9"},
	}, nil)
	_, rows := acc.FinalTable()
	if len(rows) != 2 || rows[0][0] != "G" || rows[1][0] != "L" {
		t.Fatalf("rows = %v, want G then L, limit 2", rows)
	}
	if rows[0][1] != "3" || rows[0][2] != "6" || rows[0][3] != "1" || rows[0][4] != "3" {
		t.Fatalf("G aggregates = %v, want count 3 sum 6 min 1 max 3", rows[0])
	}
}

func TestApplyFragGrouped(t *testing.T) {
	spec := specCountSum()
	cols := []string{"a.ltype", "a.n"}
	var rows [][]string
	for i := 0; i < 40; i++ {
		rows = append(rows, []string{[]string{"G", "L"}[i%2], fmt.Sprintf("%d", i)})
	}
	pcols, prows, partial, saved := ApplyFrag(cols, rows, nil, spec)
	if !partial {
		t.Fatal("grouped frag should mark rows partial")
	}
	if len(prows) != 2 {
		t.Fatalf("partial rows = %v, want one per group", prows)
	}
	if saved <= 0 {
		t.Fatalf("saved = %d, want > 0 when folding 40 rows to 2", saved)
	}
	// Round-trip through the client-side fold must equal raw folding.
	viaPartial := NewAcc(spec)
	viaPartial.AddPartial(prows)
	_ = pcols
	viaRaw := NewAcc(spec)
	viaRaw.AddRaw(cols, rows, nil)
	_, r1 := viaPartial.FinalTable()
	_, r2 := viaRaw.FinalTable()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("partial %v != raw %v", r1, r2)
	}
}

func TestApplyFragTopK(t *testing.T) {
	spec := &nodequery.OutputSpec{
		OrderBy: []nodequery.OrderKey{
			{Col: nodequery.OutputCol{Ref: nodequery.ColRef{Var: "d", Col: "length"}}, Desc: true},
		},
		Limit: 2,
	}
	cols := []string{"d.url", "d.length"}
	rows := [][]string{{"a", "10"}, {"b", "400"}, {"c", "30"}, {"d", "2"}}
	_, clipped, partial, saved := ApplyFrag(cols, rows, nil, spec)
	if partial {
		t.Fatal("top-K clip is not partial state")
	}
	if len(clipped) != 2 || clipped[0][0] != "b" || clipped[1][0] != "c" {
		t.Fatalf("clipped = %v, want per-node top-2 by length desc", clipped)
	}
	if saved <= 0 {
		t.Fatalf("saved = %d", saved)
	}
}

// ---- ordering and cost ----

func TestSortLimit(t *testing.T) {
	cols := []string{"d.url", "d.length"}
	spec := &nodequery.OutputSpec{
		OrderBy: []nodequery.OrderKey{
			{Col: nodequery.OutputCol{Ref: nodequery.ColRef{Var: "d", Col: "length"}}, Desc: true},
		},
		Limit: 3,
	}
	rows := [][]string{{"a", "9"}, {"b", "100"}, {"c", "30"}, {"e", "30"}, {"f", "1"}}
	got := SortLimit(rows, cols, spec)
	want := [][]string{{"b", "100"}, {"c", "30"}, {"e", "30"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v (numeric desc, lexicographic tiebreak)", got, want)
	}
	// Nil spec: classic lexicographic order, no limit.
	got = SortLimit([][]string{{"b"}, {"a"}}, []string{"x"}, nil)
	if !reflect.DeepEqual(got, [][]string{{"a"}, {"b"}}) {
		t.Fatalf("nil spec: %v", got)
	}
}

func TestCostModel(t *testing.T) {
	small := EstimateCloneBytes(1, 0, 1)
	big := EstimateCloneBytes(4, 200, 10)
	if small <= 0 || big <= small {
		t.Fatalf("clone bytes: small=%d big=%d", small, big)
	}
	// Cold start (no stats): never ship data.
	if ChooseShipData(3, 0, small, 1) {
		t.Fatal("avgDocBytes=0 must keep query shipping")
	}
	// Tiny docs vs a heavy clone: fetch the data.
	if !ChooseShipData(1, 100, 10_000, 1) {
		t.Fatal("cheap data vs expensive clone should ship data")
	}
	// Huge docs: ship the query.
	if ChooseShipData(2, 1<<20, small, 1) {
		t.Fatal("huge documents must ship the query")
	}
	// Bias scales the data side; non-positive bias means neutral.
	if ChooseShipData(1, 100, 150, 2) != ChooseShipData(1, 200, 150, 1) {
		t.Fatal("bias should scale data cost")
	}
	if ChooseShipData(1, 100, 150, 0) != ChooseShipData(1, 100, 150, 1) {
		t.Fatal("bias<=0 should behave as 1")
	}
}

func TestExplainOperatorTree(t *testing.T) {
	// Compile shapes: join query gets a hash-join, grouped spec shows in
	// the tree via Explain (exercised end-to-end in cmd/webdis).
	db := testDB(t)
	q := &nodequery.Query{
		Vars: []nodequery.VarDecl{
			{Name: "a", Rel: "anchor"},
			{Name: "b", Rel: "anchor"},
		},
		Where:  nodequery.Compare(nodequery.ColOperand("a", "label"), nodequery.Eq, nodequery.ColOperand("b", "label")),
		Select: []nodequery.ColRef{{Var: "a", Col: "href"}},
	}
	root, err := Compile(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	var walk func(op Op)
	walk = func(op Op) {
		if _, ok := op.(*HashJoin); ok {
			found = true
		}
		for _, k := range op.Kids() {
			walk(k)
		}
	}
	walk(root)
	if !found {
		t.Fatalf("equi-join compiled without a HashJoin: %s", strings.TrimSpace(describeAll(root)))
	}
	if _, err := Run(root, db); err != nil {
		t.Fatal(err)
	}
}

func describeAll(op Op) string {
	var b strings.Builder
	var walk func(op Op, d int)
	walk = func(op Op, d int) {
		b.WriteString(strings.Repeat("  ", d) + op.Describe() + "\n")
		for _, k := range op.Kids() {
			walk(k, d+1)
		}
	}
	walk(op, 0)
	return b.String()
}
