package nodeproc

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"webdis/internal/disql"
	"webdis/internal/nodequery"
	"webdis/internal/plan"
	"webdis/internal/pre"
	"webdis/internal/relmodel"
	"webdis/internal/wire"
)

// pageSite serves nodeHTML at every URL (nodeproc.Site).
type pageSite struct{ span int64 }

func (s *pageSite) LoadDB(url string) (*relmodel.DB, error) { return BuildDB(url, []byte(nodeHTML)) }
func (s *pageSite) NextSpan() int64                         { s.span++; return s.span }

func newEvaluator() *Evaluator {
	return &Evaluator{Site: &pageSite{}, Origin: "near.example/query", Node: Visitor{Log: NewLogTable(DedupSubsume)}}
}

// twoStages is a two-stage web-query's stage list, decoded afresh as a
// clone message would be: equal in structure to every other call's, no
// pointer shared.
func twoStages(firstPRE string) []wire.StageMsg {
	first, second := stage("q1-answer"), stage("holds")
	first.PRE, second.PRE = pre.MustParse(firstPRE), pre.MustParse("N")
	return EncodeStages([]disql.Stage{first, second})
}

// cloneTo is a clone of query num in state rem, to n nodes of near.example.
func cloneTo(num int, rem string, stages []wire.StageMsg, n int) *wire.CloneMsg {
	c := &wire.CloneMsg{ID: wire.QueryID{User: "u", Site: "user/q1", Num: num}, Rem: rem, Stages: stages}
	for i := 0; i < n; i++ {
		c.Dest = append(c.Dest, wire.DestNode{URL: fmt.Sprintf("http://near.example/p%d.html", i)})
	}
	return c
}

// process runs clone c through b as a query server's worker does.
func process(t *testing.T, b *Batch, e *Evaluator, c *wire.CloneMsg, query uint64) Counts {
	t.Helper()
	if err := b.Begin(e, c, query, new(atomic.Int64)); err != nil {
		t.Fatal(err)
	}
	for _, d := range c.Dest {
		b.Add(d)
	}
	return b.Finish()
}

// TestBatchCompilesEachQueryOnce: a clone message with N destinations
// evaluates both of its stages at every one of them, and each stage's
// node-query is compiled at the first node and reused at the rest. A
// second message of the same stages — another query's, decoded afresh —
// parses and compiles nothing: it runs on the same trees and states.
func TestBatchCompilesEachQueryOnce(t *testing.T) {
	const n = 6
	e := newEvaluator()
	var b Batch
	c := cloneTo(1, "N", twoStages("N"), n)
	if err := b.Begin(e, c, 1, new(atomic.Int64)); err != nil {
		t.Fatal(err)
	}
	var compiled []*plan.Tree
	for i, d := range c.Dest {
		b.Add(d)
		if i == 0 {
			compiled = slices.Clone(b.v.q.trees)
			if len(compiled) != 2 || compiled[0] == nil || compiled[1] == nil {
				t.Fatalf("after the first node: trees = %v, want both stages compiled", compiled)
			}
			continue
		}
		if !slices.Equal(b.v.q.trees, compiled) {
			t.Fatalf("node %d recompiled a stage", i)
		}
	}
	counts := b.Finish()
	if counts.Evaluations != 2*n {
		t.Fatalf("evaluations = %d, want %d (both stages at every node)", counts.Evaluations, 2*n)
	}
	if counts.ParseMisses != 3 || counts.ParseHits != 0 {
		t.Fatalf("first message: parse misses %d hits %d, want 3 and 0", counts.ParseMisses, counts.ParseHits)
	}
	q, states := b.v.q, len(b.v.q.states)
	b.Reset()

	second := cloneTo(2, "N", twoStages("N"), n)
	counts = process(t, &b, e, second, 2)
	if b.v.q != q || !slices.Equal(q.trees, compiled) || len(q.states) != states {
		t.Fatal("the second message of the same stages compiled its own query")
	}
	if counts.ParseMisses != 0 || counts.ParseHits != 3 {
		t.Fatalf("second message: parse misses %d hits %d, want 0 and 3", counts.ParseMisses, counts.ParseHits)
	}
	if counts.Evaluations != 2*n {
		t.Fatalf("second message: evaluations = %d, want %d", counts.Evaluations, 2*n)
	}
}

// TestCacheKeyIsEveryField: a stage list that differs from a cached one
// in any one field — a PRE, a predicate literal, an outer reference, an
// export — is compiled on its own; one that differs in nothing hits,
// whatever its QueryID.
func TestCacheKeyIsEveryField(t *testing.T) {
	e := newEvaluator()
	var b Batch
	process(t, &b, e, cloneTo(1, "N", twoStages("N"), 1), 1)
	base := b.v.q
	b.Reset()

	variants := map[string]func(ss []wire.StageMsg){
		"PRE":     func(ss []wire.StageMsg) { ss[0].PRE = "N|L" },
		"literal": func(ss []wire.StageMsg) { ss[1].Query.Where.Right.Lit = "other" },
		"outer": func(ss []wire.StageMsg) {
			ss[1].Query.Outer = []nodequery.ColRef{{Var: "d0", Col: "url"}}
		},
		"export": func(ss []wire.StageMsg) { ss[0].Export = []string{"url"} },
	}
	for name, change := range variants {
		ss := twoStages("N")
		change(ss)
		counts := process(t, &b, e, cloneTo(7, "N", ss, 1), 7)
		if b.v.q == base {
			t.Errorf("%s: a stage list differing in it hit the cache", name)
		}
		if counts.ParseHits != 0 {
			t.Errorf("%s: parse hits %d, want 0", name, counts.ParseHits)
		}
		b.Reset()
	}
	counts := process(t, &b, e, cloneTo(99, "N", twoStages("N"), 1), 99)
	if b.v.q != base || counts.ParseMisses != 0 {
		t.Fatalf("an identical stage list under another QueryID missed the cache (misses %d)", counts.ParseMisses)
	}
}

// TestCacheEvictsOldest: a worker keeps maxCompiled queries; the next one
// evicts the oldest, and only the oldest.
func TestCacheEvictsOldest(t *testing.T) {
	e := newEvaluator()
	var b Batch
	stagesOf := func(i int) []wire.StageMsg {
		ss := twoStages("N")
		ss[1].Query.Where.Right.Lit = fmt.Sprint("marker", i)
		return ss
	}
	var first []*compiled
	for i := 0; i <= maxCompiled; i++ {
		process(t, &b, e, cloneTo(i+1, "N", stagesOf(i), 1), uint64(i+1))
		first = append(first, b.v.q)
		b.Reset()
	}
	if len(b.cache.entries) != maxCompiled {
		t.Fatalf("cache holds %d queries, want %d", len(b.cache.entries), maxCompiled)
	}
	if !slices.Equal(b.cache.entries, first[1:]) {
		t.Fatal("the cache evicted something other than the oldest query")
	}
	process(t, &b, e, cloneTo(100, "N", stagesOf(maxCompiled), 1), 100)
	if b.v.q != first[maxCompiled] {
		t.Error("the newest query was not kept")
	}
	b.Reset()
	process(t, &b, e, cloneTo(101, "N", stagesOf(0), 1), 101)
	if b.v.q == first[0] {
		t.Error("the evicted query was served from the cache")
	}
}

// TestMalformedCloneCachesNothing: a clone whose state or stages do not
// parse is refused, and leaves no query and no state in the cache.
func TestMalformedCloneCachesNothing(t *testing.T) {
	e := newEvaluator()
	var b Batch
	badStages := twoStages("N")
	badStages[1].PRE = "L*("
	for _, c := range []*wire.CloneMsg{cloneTo(1, "L*(", twoStages("N"), 1), cloneTo(2, "N", badStages, 1), cloneTo(3, "N", nil, 1)} {
		if err := b.Begin(e, c, 1, new(atomic.Int64)); err == nil {
			t.Fatalf("clone %d: Begin accepted it", c.ID.Num)
		}
		if len(b.cache.entries) != 0 {
			t.Fatalf("clone %d: the cache kept %d queries", c.ID.Num, len(b.cache.entries))
		}
	}
	process(t, &b, e, cloneTo(4, "N", twoStages("N"), 1), 4)
	b.Reset()
	q, states := b.cache.entries[0], len(b.cache.entries[0].states)
	if err := b.Begin(e, cloneTo(5, "L*(", twoStages("N"), 1), 5, new(atomic.Int64)); err == nil {
		t.Fatal("Begin accepted a malformed state of a cached query")
	}
	if len(b.cache.entries) != 1 || len(q.states) != states {
		t.Fatalf("a malformed state changed the cache: %d queries, %d states (was %d)", len(b.cache.entries), len(q.states), states)
	}
}

// forwards lists a batch's outgoing clones as "state -> node" lines.
func forwards(b *Batch) []string {
	var out []string
	for _, oc := range b.Out {
		for _, d := range oc.Msg.Dest {
			out = append(out, oc.Msg.Rem+" -> "+d.URL)
		}
	}
	slices.Sort(out)
	return out
}

// stepForwards lists what the uncached Step forwards from nodeURL in rem.
func stepForwards(t *testing.T, rem pre.Expr) []string {
	t.Helper()
	res, err := Step(db(t), nodeURL, rem, stage("q1-answer"), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, fw := range res.Continue {
		if fw.Text != fw.Rem.String() {
			t.Fatalf("Step's derivative text %q, want %q", fw.Text, fw.Rem)
		}
		for _, tgt := range fw.Targets {
			out = append(out, fw.Text+" -> "+tgt.URL)
		}
	}
	slices.Sort(out)
	return out
}

// TestRewriteForwardsLikeUncached: a partly covered arrival the log
// table rewrites (L*3·G after L*1·G: the G-forward is done) stays in the
// derivative table and forwards exactly the states the uncached Step
// does on the paper's rewritten PRE, L·L*2·G — not the G-links its
// unrewritten state would follow; the table's own states forward what
// Step does on theirs.
func TestRewriteForwardsLikeUncached(t *testing.T) {
	e := newEvaluator()
	var b Batch
	at := func(num int, rem string) *wire.CloneMsg {
		c := cloneTo(num, rem, twoStages("L*3·G"), 0)
		c.Dest = []wire.DestNode{{URL: nodeURL}}
		return c
	}
	process(t, &b, e, at(1, "L*1·G"), 1)
	if got, want := forwards(&b), stepForwards(t, pre.MustParse("L*1·G")); !slices.Equal(got, want) {
		t.Fatalf("cached L*1·G forwards %v, Step %v", got, want)
	}
	b.Reset()
	counts := process(t, &b, e, at(1, "L*3·G"), 1)
	if counts.DupRewritten != 1 {
		t.Fatalf("rewritten = %d, want 1", counts.DupRewritten)
	}
	if !b.v.q.held(b.at.st) {
		t.Fatal("the rewritten arrival left the derivative table")
	}
	got, want := forwards(&b), stepForwards(t, pre.MustParse("L·L*2·G"))
	if !slices.Equal(got, want) || len(got) == 0 {
		t.Fatalf("rewritten arrival forwards %v, uncached Step %v", got, want)
	}
	if unrewritten := stepForwards(t, pre.MustParse("L*3·G")); slices.Equal(got, unrewritten) {
		t.Fatalf("the rewrite changed nothing to forward: %v", got)
	}
}

// TestStatesPastBoundStepUncached: once a query's table holds maxStates
// states, further states step afresh and forward what Step forwards.
func TestStatesPastBoundStepUncached(t *testing.T) {
	e := newEvaluator()
	var b Batch
	process(t, &b, e, cloneTo(1, "N", twoStages("N|(L|G)*5"), 1), 1)
	q := b.v.q
	for i := 0; len(q.states) < maxStates; i++ {
		q.state(pre.MustParse(fmt.Sprintf("G*%d", i+2)))
	}
	b.Reset()
	c := cloneTo(1, "(L|G)*4", twoStages("N|(L|G)*5"), 0)
	c.Dest = []wire.DestNode{{URL: nodeURL}}
	process(t, &b, e, c, 2)
	if q.states[b.at.st.text] == b.at.st || b.at.st.derived || len(q.states) != maxStates {
		t.Fatalf("a state past the bound was cached (%d states)", len(q.states))
	}
	if got, want := forwards(&b), stepForwards(t, pre.MustParse("(L|G)*4")); !slices.Equal(got, want) || len(got) == 0 {
		t.Fatalf("past the bound: forwards %v, Step %v", got, want)
	}
}

// TestReceivedStagesUntouched: outgoing clones carry a suffix of the
// stage list the worker first received, shared, so nothing may write
// into a received clone's Stages — not the batch that received it, nor
// the batches that later reuse it.
func TestReceivedStagesUntouched(t *testing.T) {
	e := newEvaluator()
	var b Batch
	c := cloneTo(1, "N|L", twoStages("N|L"), 3)
	c.Budget = wire.Budget{Hops: 9, Clones: 9, Rows: 9}
	want := twoStages("N|L")
	process(t, &b, e, c, 1)
	if len(b.Out) == 0 {
		t.Fatal("the clone forwarded nothing")
	}
	for _, oc := range b.Out {
		k := len(c.Stages) - len(oc.Msg.Stages)
		if &oc.Msg.Stages[0] != &c.Stages[k] {
			t.Fatalf("an outgoing clone's stages are a copy, not the received list's suffix %d", k)
		}
	}
	b.Reset()
	for i := 2; i < 5; i++ {
		process(t, &b, e, cloneTo(i, "N|L", twoStages("N|L"), 3), uint64(i))
		b.Reset()
	}
	if !reflect.DeepEqual(c.Stages, want) {
		t.Fatalf("the received stages changed:\n%+v\nwant\n%+v", c.Stages, want)
	}
}

// TestBatchRowsIndependent: the rows a Batch hands out are carved from
// one block per answering node, each capped at its own cells, so
// appending to one row or overwriting its cells leaves every other row —
// of its table, and of the other nodes' tables — as it was.
func TestBatchRowsIndependent(t *testing.T) {
	anchors := disql.Stage{PRE: pre.MustParse("N"), Query: &nodequery.Query{
		Vars:   []nodequery.VarDecl{{Name: "a", Rel: "anchor"}},
		Select: []nodequery.ColRef{{Var: "a", Col: "href"}, {Var: "a", Col: "label"}},
	}}
	var b Batch
	process(t, &b, newEvaluator(), cloneTo(1, "N", EncodeStages([]disql.Stage{anchors}), 3), 1)
	var rows [][]string
	for _, tbl := range b.Tables {
		rows = append(rows, tbl.Rows...)
	}
	if len(b.Tables) != 3 || len(rows) != 12 {
		t.Fatalf("%d tables, %d rows, want 3 tables of 4 rows", len(b.Tables), len(rows))
	}
	checkRowsIndependent(t, rows)
}

// checkRowsIndependent appends to each row in turn and overwrites its
// cells, and fails if any other row changed.
func checkRowsIndependent(t *testing.T, rows [][]string) {
	t.Helper()
	want := make([][]string, len(rows))
	for i, r := range rows {
		want[i] = slices.Clone(r)
	}
	for i := range rows {
		rows[i] = append(rows[i], "appended")
		for j := range rows[i] {
			rows[i][j] = "overwritten"
		}
		for k, r := range rows {
			if k != i && !slices.Equal(r, want[k]) {
				t.Fatalf("writing row %d changed row %d: %q, want %q", i, k, r, want[k])
			}
		}
		rows[i] = want[i]
	}
}
